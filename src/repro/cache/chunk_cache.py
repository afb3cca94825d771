"""The bounded in-memory chunk cache (memcached stand-in).

One :class:`ChunkCache` instance runs per region.  It stores erasure-coded
chunks up to a byte capacity and delegates admission and victim selection to an
:class:`~repro.cache.base.EvictionPolicy`.  Time is injected (a callable
returning the current simulated time) so that recency information lines up with
the simulation clock.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.cache.base import CacheEntry, CacheSnapshot, CacheStats, EvictionPolicy
from repro.cache.policies import LRUEvictionPolicy
from repro.erasure.chunk import Chunk, ChunkId


class ChunkCache:
    """Byte-bounded chunk cache with pluggable eviction.

    Args:
        capacity_bytes: maximum total size of cached chunk payloads.
        policy: eviction/admission policy; defaults to LRU (memcached's).
        clock: callable returning the current time (simulated seconds); a
            monotonically increasing logical counter is used if omitted.
        region: optional region name (for reports and debugging).

    Example:
        >>> from repro.cache import ChunkCache
        >>> from repro.erasure import Chunk, ChunkId
        >>> cache = ChunkCache(capacity_bytes=200)
        >>> cache.put(Chunk(ChunkId("a", 0), size=100))
        True
        >>> cache.contains(ChunkId("a", 0))
        True
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy: EvictionPolicy | None = None,
        clock: Callable[[], float] | None = None,
        region: str = "local",
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self._capacity = capacity_bytes
        self._policy = policy or LRUEvictionPolicy()
        # Policies that leave on_access at the base-class no-op (e.g. Agar's
        # pinned configuration) skip the hook call on every hit; detected by
        # identity so an overriding subclass always gets called.
        self._access_hook = (
            None
            if type(self._policy).on_access is EvictionPolicy.on_access
            else self._policy.on_access
        )
        self._region = region
        self._entries: dict[ChunkId, CacheEntry] = {}
        self._used = 0
        self._ticks = 0
        self._clock = clock
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def capacity_bytes(self) -> int:
        """Configured capacity in bytes."""
        return self._capacity

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied by cached chunks."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Remaining capacity in bytes."""
        return self._capacity - self._used

    @property
    def policy(self) -> EvictionPolicy:
        """The eviction policy in use."""
        return self._policy

    @property
    def region(self) -> str:
        """Region this cache belongs to."""
        return self._region

    def __len__(self) -> int:
        return len(self._entries)

    def _now(self) -> float:
        if self._clock is not None:
            return float(self._clock())
        self._ticks += 1
        return float(self._ticks)

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def contains(self, chunk_id: ChunkId) -> bool:
        """True if the chunk is currently cached (does not count as a lookup)."""
        return chunk_id in self._entries

    def get(self, chunk_id: ChunkId) -> Chunk | None:
        """Look up a chunk; returns None (and counts a miss) if absent."""
        entry = self._entries.get(chunk_id)
        if entry is None:
            self.stats.chunk_misses += 1
            return None
        # _now() inlined: this lookup sits on the simulation's per-chunk path.
        clock = self._clock
        if clock is not None:
            now = clock()
            entry.last_access = now if type(now) is float else float(now)
        else:
            self._ticks += 1
            entry.last_access = float(self._ticks)
        entry.access_count += 1
        hook = self._access_hook
        if hook is not None:
            hook(entry)
        self.stats.chunk_hits += 1
        return entry.chunk

    def probe(self, chunk_ids: Sequence[ChunkId]) -> list[int]:
        """Look up a read's chunks in one call; returns the offsets that hit.

        The effects of ``get(chunk_id)`` for every id, in order — recency,
        ``access_count``, the policy's ``on_access`` hook, the hit and miss
        counters — with the clock read once for all of them: one read's
        lookups happen at one time.  A clock-less cache ticks once per hit,
        as :meth:`get` does.
        """
        find = self._entries.get
        clock = self._clock
        hook = self._access_hook
        now = None
        hits: list[int] = []
        for offset, chunk_id in enumerate(chunk_ids):
            entry = find(chunk_id)
            if entry is None:
                continue
            if clock is None:
                self._ticks += 1
                entry.last_access = float(self._ticks)
            else:
                if now is None:
                    now = clock()
                    if type(now) is not float:
                        now = float(now)
                entry.last_access = now
            entry.access_count += 1
            if hook is not None:
                hook(entry)
            hits.append(offset)
        stats = self.stats
        stats.chunk_hits += len(hits)
        stats.chunk_misses += len(chunk_ids) - len(hits)
        return hits

    def put(self, chunk: Chunk) -> bool:
        """Insert a chunk, evicting as needed.  Returns True if it was admitted.

        A chunk larger than the whole cache, or one the policy refuses to
        admit, is rejected (returns False).

        Re-putting an already-cached chunk of unchanged size is a *refresh*:
        the existing :class:`CacheEntry` is updated in place (payload,
        insertion and access times; the policy sees ``on_insert`` with the
        refreshed entry, no ``on_evict``).  LRU-style strategies re-put their
        ``c`` chunks on every read, so this path is what keeps the simulation
        hot loop free of per-read entry allocation and eviction-order churn —
        the net policy state (e.g. LRU order) is identical to the former
        remove-and-reinsert.  A re-put whose size changed (a write) still
        goes through removal and reinsertion, because capacity accounting
        and eviction may both be needed.
        """
        chunk_id = chunk.chunk_id
        if chunk.size > self._capacity:
            self.stats.rejections += 1
            return False
        if not self._policy.admits(chunk_id, chunk.size):
            self.stats.rejections += 1
            return False

        entry = self._entries.get(chunk_id)
        if entry is not None:
            if entry.size == chunk.size:
                return self._refresh(entry, chunk)
            # Size changed on a write: fall back to remove-and-reinsert.
            self._remove(chunk_id, count_eviction=False)

        while self._used + chunk.size > self._capacity and self._entries:
            victim = self._policy.select_victim(self._entries)
            self._evict(victim)

        if self._used + chunk.size > self._capacity:
            self.stats.rejections += 1
            return False

        now = self._now()
        entry = CacheEntry(chunk_id=chunk_id, size=chunk.size, inserted_at=now,
                           last_access=now, chunk=chunk)
        self._entries[chunk_id] = entry
        self._used += chunk.size
        self._policy.on_insert(entry)
        self.stats.insertions += 1
        return True

    def _refresh(self, entry: CacheEntry, chunk: Chunk) -> bool:
        """Refresh an existing entry in place (same size): no churn.

        Equivalent to remove-and-reinsert for every shipped policy — the
        entry's timestamps reset and ``on_insert`` restores its ranking
        (LRU/FIFO order, pinned-policy tie-breaks) — without allocating a new
        :class:`CacheEntry` or touching capacity accounting.
        """
        now = self._now()
        entry.chunk = chunk
        entry.inserted_at = now
        entry.last_access = now
        entry.access_count = 0
        self._policy.on_insert(entry)
        self.stats.refreshes += 1
        return True

    def touch(self, chunk_id: ChunkId) -> bool:
        """Refresh a cached chunk's recency/insertion rank without a payload.

        The in-place form of re-putting the chunk that is already cached:
        returns False (and does nothing) if the chunk is absent or the policy
        no longer admits it — exactly the cases where :meth:`put` would not
        have refreshed either.
        """
        entry = self._entries.get(chunk_id)
        if entry is None:
            return False
        if not self._policy.admits(chunk_id, entry.size):
            self.stats.rejections += 1
            return False
        now = self._now()
        entry.inserted_at = now
        entry.last_access = now
        entry.access_count = 0
        self._policy.on_insert(entry)
        self.stats.refreshes += 1
        return True

    def put_all(self, chunks: Iterable[Chunk]) -> int:
        """Insert several chunks; returns how many were admitted."""
        return sum(1 for chunk in chunks if self.put(chunk))

    def delete(self, chunk_id: ChunkId) -> bool:
        """Remove a chunk explicitly; returns True if it was present."""
        if chunk_id not in self._entries:
            return False
        self._remove(chunk_id, count_eviction=False)
        return True

    def record_request(self, key: str) -> None:
        """Tell the policy a client read for ``key`` started (LFU proxy feed)."""
        self._policy.on_request(key)

    def clear(self) -> None:
        """Drop every cached chunk and reset the policy state."""
        self._entries.clear()
        self._used = 0
        self._policy.reset()

    # ------------------------------------------------------------------ #
    # Object-level helpers
    # ------------------------------------------------------------------ #
    def cached_indices(self, key: str) -> list[int]:
        """Sorted chunk indices of ``key`` currently in the cache."""
        return sorted(chunk_id.index for chunk_id in self._entries if chunk_id.key == key)

    def cached_keys(self) -> set[str]:
        """Distinct object keys with at least one cached chunk."""
        return {chunk_id.key for chunk_id in self._entries}

    def evict_key(self, key: str) -> int:
        """Remove every cached chunk of ``key``; returns how many were removed."""
        victims = [chunk_id for chunk_id in self._entries if chunk_id.key == key]
        for chunk_id in victims:
            self._remove(chunk_id, count_eviction=False)
        return len(victims)

    def snapshot(self) -> CacheSnapshot:
        """Immutable view of current contents (drives the Fig. 10 analysis)."""
        per_key: dict[str, list[int]] = {}
        for chunk_id in self._entries:
            per_key.setdefault(chunk_id.key, []).append(chunk_id.index)
        return CacheSnapshot(
            capacity_bytes=self._capacity,
            used_bytes=self._used,
            chunks_per_key={key: tuple(sorted(indices)) for key, indices in per_key.items()},
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _evict(self, chunk_id: ChunkId) -> None:
        entry = self._entries[chunk_id]
        self.stats.evictions += 1
        self.stats.bytes_evicted += entry.size
        self._remove(chunk_id, count_eviction=True)

    def _remove(self, chunk_id: ChunkId, count_eviction: bool) -> None:
        entry = self._entries.pop(chunk_id)
        self._used -= entry.size
        self._policy.on_evict(entry)
