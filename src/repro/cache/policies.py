"""Eviction policies: LRU, LFU, FIFO and the pinned-configuration policy.

LRU and LFU are the baselines the paper compares Agar against (§V).  The
pinned-configuration policy is the mechanism through which Agar's Cache
Manager controls a cache: it admits only chunks named in the current static
configuration and prefers evicting chunks that have fallen out of it.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict

from repro.cache.base import CacheEntry, EvictionPolicy
from repro.erasure.chunk import ChunkId


class LRUEvictionPolicy(EvictionPolicy):
    """Least Recently Used, at chunk granularity (memcached's behaviour).

    Chunks of the same object are read together, so in practice this behaves
    like an object-level LRU, but partially evicted objects (partial hits)
    are possible, exactly as with memcached in the paper's LRU baseline.
    """

    name = "lru"

    def __init__(self) -> None:
        self._order: OrderedDict[ChunkId, None] = OrderedDict()

    def on_insert(self, entry: CacheEntry) -> None:
        self._order[entry.chunk_id] = None
        self._order.move_to_end(entry.chunk_id)

    def on_access(self, entry: CacheEntry) -> None:
        if entry.chunk_id in self._order:
            self._order.move_to_end(entry.chunk_id)

    def on_evict(self, entry: CacheEntry) -> None:
        self._order.pop(entry.chunk_id, None)

    def select_victim(self, entries: dict[ChunkId, CacheEntry]) -> ChunkId:
        for chunk_id in self._order:
            if chunk_id in entries:
                return chunk_id
        # Fall back to the entry with the oldest access time; only reachable if
        # the policy was attached to a cache that already had entries.
        return min(entries.values(), key=lambda entry: entry.last_access).chunk_id

    def reset(self) -> None:
        self._order.clear()


class LFUEvictionPolicy(EvictionPolicy):
    """Least Frequently Used, with per-object request counting.

    The paper's LFU baseline runs a proxy that tracks request frequency per
    object (§V-A); eviction removes chunks belonging to the least frequently
    requested object, breaking ties by recency.
    """

    name = "lfu"

    def __init__(self) -> None:
        self._frequency: dict[str, int] = {}
        self._tie_breaker = itertools.count()
        self._last_seen: dict[str, int] = {}

    def on_request(self, key: str) -> None:
        self._frequency[key] = self._frequency.get(key, 0) + 1
        self._last_seen[key] = next(self._tie_breaker)

    def on_access(self, entry: CacheEntry) -> None:
        # Chunk-level hits refresh recency but frequency is per request,
        # which on_request already counted.
        self._last_seen.setdefault(entry.key, next(self._tie_breaker))

    def select_victim(self, entries: dict[ChunkId, CacheEntry]) -> ChunkId:
        def sort_key(entry: CacheEntry) -> tuple[int, int, float, str]:
            return (
                self._frequency.get(entry.key, 0),
                self._last_seen.get(entry.key, -1),
                entry.last_access,
                str(entry.chunk_id),
            )

        return min(entries.values(), key=sort_key).chunk_id

    def reset(self) -> None:
        self._frequency.clear()
        self._last_seen.clear()


class PinnedConfigurationPolicy(EvictionPolicy):
    """Admission/eviction driven by an externally computed configuration.

    Agar's Cache Manager periodically computes the set of chunks that *should*
    be cached (§IV) and installs it here via :meth:`set_configuration`.  The
    policy then:

    * admits only chunks that belong to the configuration (unless
      ``strict_admission`` is disabled);
    * evicts chunks that are no longer part of the configuration first, then
      falls back to LRU ordering among pinned chunks.
    """

    name = "agar-pinned"

    def __init__(self, strict_admission: bool = True) -> None:
        self._pinned: frozenset[ChunkId] = frozenset()
        self._strict_admission = strict_admission

    @property
    def pinned(self) -> frozenset[ChunkId]:
        """The chunk ids of the currently installed configuration."""
        return frozenset(self._pinned)

    def set_configuration(self, chunk_ids: set[ChunkId] | frozenset[ChunkId]) -> None:
        """Install a new target configuration (replaces the previous one; a set is copied)."""
        self._pinned = frozenset(chunk_ids)

    def admits(self, chunk_id: ChunkId, size: int) -> bool:
        if not self._strict_admission:
            return True
        return chunk_id in self._pinned

    def select_victim(self, entries: dict[ChunkId, CacheEntry]) -> ChunkId:
        unpinned = [entry for entry in entries.values() if entry.chunk_id not in self._pinned]
        candidates = unpinned if unpinned else list(entries.values())
        return min(
            candidates, key=lambda entry: (entry.last_access, entry.inserted_at, str(entry.chunk_id))
        ).chunk_id

    def reset(self) -> None:
        self._pinned = frozenset()
