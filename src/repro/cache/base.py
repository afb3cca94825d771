"""Cache primitives: entries, statistics and the eviction-policy interface.

The paper's caching layer is memcached (§II-C): a bounded in-memory hash table
holding individual erasure-coded chunks.  We model it as a byte-capacity chunk
cache with a pluggable :class:`EvictionPolicy`.  Classical policies (LRU, LFU)
and the pinned-configuration policy Agar drives live in
:mod:`repro.cache.policies`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.erasure.chunk import ChunkId


@dataclass(slots=True)
class CacheEntry:
    """Book-keeping for one cached chunk.

    Attributes:
        chunk_id: identity of the cached chunk.
        size: payload size in bytes (what counts against capacity).
        inserted_at: logical or simulated time of insertion.
        last_access: logical or simulated time of the most recent hit.
        access_count: number of hits since insertion.
        chunk: the stored chunk itself.  Kept on the entry (rather than in a
            second id-keyed dict) so a cache hit costs one hash probe.
    """

    chunk_id: ChunkId
    size: int
    inserted_at: float
    last_access: float
    access_count: int = 0
    chunk: object | None = None

    @property
    def key(self) -> str:
        """Object key the cached chunk belongs to."""
        return self.chunk_id.key


@dataclass(slots=True)
class CacheStats:
    """Hit/miss and churn counters for one cache instance.

    ``chunk_hits``/``chunk_misses`` count individual chunk lookups;
    ``object_*`` counters are maintained by the read strategies, which know
    whether a whole-object read was a full hit, a partial hit or a miss
    (the distinction Fig. 7 reports).  ``refreshes`` counts puts of an
    already-cached chunk that were satisfied in place (no entry churn) —
    the common case for LRU-style strategies, which re-put their ``c``
    chunks on every read.
    """

    chunk_hits: int = 0
    chunk_misses: int = 0
    insertions: int = 0
    refreshes: int = 0
    rejections: int = 0
    evictions: int = 0
    bytes_evicted: int = 0


@dataclass(frozen=True, slots=True)
class CacheSnapshot:
    """Immutable view of a cache's contents for analysis (Fig. 10).

    Attributes:
        capacity_bytes: configured capacity.
        used_bytes: bytes currently occupied.
        chunks_per_key: mapping object key -> sorted list of cached chunk indices.
    """

    capacity_bytes: int
    used_bytes: int
    chunks_per_key: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def chunk_count_histogram(self) -> dict[int, int]:
        """Histogram: number of cached objects per cached-chunk count.

        This is exactly what Fig. 10 plots (how many objects have 1, 5, 7, 9
        chunks in the cache).
        """
        histogram: dict[int, int] = {}
        for indices in self.chunks_per_key.values():
            count = len(indices)
            histogram[count] = histogram.get(count, 0) + 1
        return histogram


class EvictionPolicy(ABC):
    """Strategy deciding which cached chunk to evict and what to admit.

    The cache calls the ``on_*`` hooks as entries are inserted, hit and
    evicted, and :meth:`select_victim` when it needs space.  Policies may also
    veto admissions (:meth:`admits`), which is how the Agar pinned
    configuration plugs in.
    """

    name: str = "base"

    def on_insert(self, entry: CacheEntry) -> None:
        """Called after ``entry`` is added to the cache."""

    def on_access(self, entry: CacheEntry) -> None:
        """Called after ``entry`` is served from the cache."""

    def on_evict(self, entry: CacheEntry) -> None:
        """Called after ``entry`` is removed from the cache."""

    def on_request(self, key: str) -> None:
        """Called when a client read for ``key`` starts (hit or miss).

        LFU-style policies use this to track per-object request frequency the
        way the paper's LFU proxy does (§V-A).
        """

    def admits(self, chunk_id: ChunkId, size: int) -> bool:
        """Return True if the chunk may enter the cache (default: always)."""
        return True

    @abstractmethod
    def select_victim(self, entries: dict[ChunkId, CacheEntry]) -> ChunkId:
        """Pick the chunk to evict from the non-empty ``entries`` map."""

    def reset(self) -> None:
        """Drop all internal state (called by ``ChunkCache.clear``)."""
