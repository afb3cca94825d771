"""The Request Monitor (paper §III-b).

The Request Monitor sits on every client read: it records the access (feeding
the EWMA popularity statistics) and answers with *hints* — which chunks of the
object the current configuration wants in the local cache.  The client uses the
hints both to decide where to read chunks from and to know which chunks to
write back into the cache afterwards.

The paper measures ~0.5 ms of processing per request for the monitor plus the
cache manager; the simulation charges that as ``processing_overhead_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache_manager import CacheManager
from repro.core.popularity import DEFAULT_ALPHA, PopularityTracker

#: Average request-monitor + cache-manager processing time reported in §VI.
DEFAULT_PROCESSING_OVERHEAD_MS = 0.5


@dataclass(frozen=True, slots=True)
class ReadHints:
    """Answer returned to a client before it reads an object.

    Attributes:
        key: the object key.
        cached_chunk_indices: chunks the active configuration wants cached
            locally — the client should try the cache for these and write any
            it had to fetch from the backend back into the cache.
        processing_overhead_ms: time Agar spent producing the hints; the
            client adds it to the read latency.
    """

    key: str
    cached_chunk_indices: tuple[int, ...]
    processing_overhead_ms: float = DEFAULT_PROCESSING_OVERHEAD_MS


class RequestMonitor:
    """Tracks request statistics and serves read hints (paper §III-b).

    Args:
        cache_manager: the cache manager whose configuration provides hints.
        alpha: EWMA weight of the current period's frequency.
        processing_overhead_ms: per-request processing cost charged to reads.
    """

    def __init__(self, cache_manager: CacheManager, alpha: float = DEFAULT_ALPHA,
                 processing_overhead_ms: float = DEFAULT_PROCESSING_OVERHEAD_MS) -> None:
        self._cache_manager = cache_manager
        self._popularity = PopularityTracker(alpha=alpha)
        self._processing_overhead_ms = processing_overhead_ms
        self._requests_seen = 0

    @property
    def popularity_tracker(self) -> PopularityTracker:
        """The underlying EWMA popularity tracker."""
        return self._popularity

    @property
    def requests_seen(self) -> int:
        """Total number of requests recorded."""
        return self._requests_seen

    @property
    def processing_overhead_ms(self) -> float:
        """Per-request processing cost charged to reads."""
        return self._processing_overhead_ms

    def count_request(self, key: str) -> None:
        """Record a client read of ``key`` in the statistics; returns nothing.

        All a read does here once it remembers the key's hints: they are a
        function of the installed configuration alone (:meth:`peek_hints`),
        which the read path resolves once per configuration, not per read.
        """
        self._requests_seen += 1
        self._popularity.record_access(key)

    def record_request(self, key: str) -> ReadHints:
        """Record a client read of ``key`` and return the caching hints for it."""
        self.count_request(key)
        return self.peek_hints(key)

    def peek_hints(self, key: str) -> ReadHints:
        """Return the hints of ``key`` without recording an access."""
        return ReadHints(
            key=key,
            cached_chunk_indices=self._cache_manager.hints_for(key),
            processing_overhead_ms=self._processing_overhead_ms,
        )

    def end_period(self) -> dict[str, float]:
        """Close the current statistics period and return updated popularity."""
        return self._popularity.end_period()
