"""The bounded in-memory chunk cache (memcached stand-in).

One :class:`ChunkCache` instance runs per region.  It stores erasure-coded
chunks up to a byte capacity and delegates admission and victim selection to an
:class:`~repro.cache.base.EvictionPolicy`.  Time is injected (a callable
returning the current simulated time) so that recency information lines up with
the simulation clock.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.cache.base import CacheEntry, CacheSnapshot, CacheStats, EvictionPolicy
from repro.cache.policies import LRUEvictionPolicy
from repro.erasure.chunk import Chunk, ChunkId


class ChunkCache:
    """Byte-bounded chunk cache with pluggable eviction.

    Args:
        capacity_bytes: maximum total size of cached chunk payloads; finite
            and non-negative.
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
        >>> len(cache), cache.used_bytes
        (1, 100)
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy: EvictionPolicy | None = None,
        clock: Callable[[], float] | None = None,
        region: str = "local",
    ) -> None:
        if not (math.isfinite(capacity_bytes) and capacity_bytes >= 0):
            raise ValueError("capacity_bytes must be finite and non-negative")
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
        #: Goes up whenever the set of cached ids changes (an insertion, a
        #: removal of any kind, a clear of a non-empty cache) and at no other
        #: time: while it stands, every id maps to the same
        #: :class:`CacheEntry` object, so a reader may keep what
        #: :meth:`lookup` returned and replay it through :meth:`record_hits`.
        self.membership = 0

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
    def get(self, chunk_id: ChunkId) -> Chunk | None:
        """Look up a chunk; returns None (and counts a miss) if absent."""
        entry = self._entries.get(chunk_id)
        if entry is None:
            self.stats.chunk_misses += 1
            return None
        self.record_hits((entry,), 1)
        return entry.chunk

    def probe(self, chunk_ids: Sequence[ChunkId]) -> list[int]:
        """Look up a read's chunks in one call; returns the offsets that hit.

        The effects of ``get(chunk_id)`` for every id, in order — recency,
        ``access_count``, the policy's ``on_access`` hook, the hit and miss
        counters — with the clock read once for all of them: one read's
        lookups happen at one time.  A clock-less cache ticks once per hit,
        as :meth:`get` does.  Exactly :meth:`lookup` then :meth:`record_hits`.
        """
        offsets, entries = self.lookup(chunk_ids)
        self.record_hits(entries, len(chunk_ids))
        return offsets

    def lookup(self, chunk_ids: Sequence[ChunkId]) -> tuple[list[int], list[CacheEntry]]:
        """The offsets of ``chunk_ids`` that are cached, and their entries.

        No side effects: no recency, no counters, no policy hook.
        """
        find = self._entries.get
        offsets: list[int] = []
        entries: list[CacheEntry] = []
        for offset, chunk_id in enumerate(chunk_ids):
            entry = find(chunk_id)
            if entry is not None:
                offsets.append(offset)
                entries.append(entry)
        return offsets, entries

    def record_hits(self, entries: Sequence[CacheEntry], requested: int) -> None:
        """Apply the effects of a probe of ``requested`` ids that hit ``entries``.

        Per entry, in order: recency, ``access_count`` and the policy's
        ``on_access`` hook, with the clock read once (a clock-less cache
        ticks once per entry); then ``len(entries)`` hits and the rest of
        ``requested`` misses.  ``entries`` must be cached: what
        :meth:`lookup` returned while :attr:`membership` has not moved.
        """
        hook = self._access_hook
        if entries:
            clock = self._clock
            if clock is None:
                ticks = self._ticks
                for entry in entries:
                    ticks += 1
                    entry.last_access = float(ticks)
                    entry.access_count += 1
                    if hook is not None:
                        hook(entry)
                self._ticks = ticks
            else:
                now = clock()
                if type(now) is not float:
                    now = float(now)
                for entry in entries:
                    entry.last_access = now
                    entry.access_count += 1
                    if hook is not None:
                        hook(entry)
        stats = self.stats
        stats.chunk_hits += len(entries)
        stats.chunk_misses += requested - len(entries)

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
        self.membership += 1
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
        if self._entries:
            self.membership += 1
        self._entries.clear()
        self._used = 0
        self._policy.reset()

    # ------------------------------------------------------------------ #
    # Object-level helpers
    # ------------------------------------------------------------------ #
    def cached_indices(self, key: str) -> list[int]:
        """Sorted chunk indices of ``key`` currently in the cache."""
        return sorted(chunk_id.index for chunk_id in self._entries if chunk_id.key == key)

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
        self.membership += 1
        self._policy.on_evict(entry)
