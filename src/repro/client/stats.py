"""Client-side measurement: per-read results and aggregated statistics.

The modified YCSB client of the paper measures the latency of reading a *full
object* (not individual chunks) and classifies cache usage into total hits,
partial hits and misses (§V-A, §V-B).  :class:`LatencyStats` aggregates those
measurements into the quantities the figures report: average latency and hit
ratio.

The aggregator is on the simulation driver's per-request path, so it records
into a preallocated, geometrically grown NumPy buffer instead of appending to
a Python list — the request replay loop performs no per-request allocations
beyond the :class:`ReadResult` itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np


class HitType(str, Enum):
    """Cache outcome of one object read (Fig. 7's classification)."""

    FULL = "full"          #: every chunk came from the local cache
    PARTIAL = "partial"    #: some chunks came from the cache, some from the backend
    MISS = "miss"          #: every chunk came from the backend


class ReadResult:
    """Outcome of one object read.

    A slotted value class rather than a dataclass: one instance is built per
    simulated read, and the generated ``__init__`` of a frozen dataclass
    (``object.__setattr__`` per field) measured ~3× slower on that hot path.
    Field layout, keyword construction, equality, hashing and repr behave
    like the frozen dataclass it replaces; all but the constructor are read
    off ``__slots__``, whose order is the field order (the engine golden
    hashes the repr).

    Attributes:
        key: object read.
        latency_ms: end-to-end latency of the read.
        hit_type: cache classification (local cache only; neighbour-cache
            reads do not count as hits).
        chunks_from_cache: number of chunks served by the local cache.
        chunks_from_backend: number of chunks fetched from backend regions.
        chunks_from_neighbors: number of chunks fetched from a collaborating
            neighbour region's cache (§VI deployments only).
        backend_regions: distinct backend regions contacted.
        started_at_s: simulated time at which the read started.
        degraded: the read succeeded but had to deviate from its failure-free
            plan because of an active fault (cache skipped during an AZ
            failure, or backend fetches re-planned around a region outage).
        failed: fewer than ``k`` chunks were reachable anywhere — the object
            could not be reconstructed (an *unavailable read*).
        retries: timed-out remote chunk fetches that were retried under the
            read's retry budget (0 when resilience is off).
        hedged: a speculative extra-chunk fetch was launched because the
            slowest chunk exceeded its link's quantile-tracked deadline.
        hedge_won: the hedged fetch finished before the straggler it raced
            (implies ``hedged``).
    """

    __slots__ = ("key", "latency_ms", "hit_type", "chunks_from_cache",
                 "chunks_from_backend", "chunks_from_neighbors",
                 "backend_regions", "started_at_s", "degraded", "failed",
                 "retries", "hedged", "hedge_won")

    def __init__(self, key: str, latency_ms: float, hit_type: HitType,
                 chunks_from_cache: int, chunks_from_backend: int,
                 backend_regions: tuple[str, ...] = (),
                 started_at_s: float = 0.0,
                 chunks_from_neighbors: int = 0,
                 degraded: bool = False,
                 failed: bool = False,
                 retries: int = 0,
                 hedged: bool = False,
                 hedge_won: bool = False) -> None:
        self.key = key
        self.latency_ms = latency_ms
        self.hit_type = hit_type
        self.chunks_from_cache = chunks_from_cache
        self.chunks_from_backend = chunks_from_backend
        self.chunks_from_neighbors = chunks_from_neighbors
        self.backend_regions = backend_regions
        self.started_at_s = started_at_s
        self.degraded = degraded
        self.failed = failed
        self.retries = retries
        self.hedged = hedged
        self.hedge_won = hedge_won

    #: The fields as a tuple, in slot order: what equality, hashing, the
    #: repr and pickling read.
    _astuple = property(operator.attrgetter(*__slots__))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReadResult):
            return NotImplemented
        return self._astuple == other._astuple

    def __hash__(self) -> int:
        return hash(self._astuple)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._astuple))
        return f"ReadResult({fields})"

    def __getstate__(self) -> tuple:
        return self._astuple

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)


#: Initial capacity of the latency buffer (doubles as it fills).
_INITIAL_BUFFER = 1024


class LatencyStats:
    """Streaming aggregation of read results.

    Latencies live in a preallocated ``float64`` buffer that doubles when
    full; counters are plain ints.  :meth:`record` therefore allocates only
    on the (amortized O(1)) growth path.
    """

    __slots__ = ("_buffer", "_count", "full_hits", "partial_hits", "misses",
                 "cache_chunks_total", "backend_chunks_total",
                 "neighbor_chunks_total", "degraded_reads", "unavailable_reads",
                 "retries_total", "hedged_reads", "hedge_wins")

    #: The integer counters: every slot after the buffer and its fill.
    _COUNTERS = __slots__[2:]

    def __init__(self, capacity: int = _INITIAL_BUFFER) -> None:
        self._buffer = np.empty(max(int(capacity), 1), dtype=np.float64)
        self._count = 0
        for name in self._COUNTERS:
            setattr(self, name, 0)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(self, result: ReadResult,
               latency_ms: float | None = None) -> None:
        """Add one read result, under ``latency_ms`` when given.

        The engine records a result as it is.  The serving tier records a
        decision under the *measured* wall latency, and the load generator
        what it parsed off a response's headers (its results carry the wall
        latency already).

        A failed (unavailable) read carries no meaningful latency or hit
        classification — the object was never reconstructed — so it only
        bumps :attr:`unavailable_reads` and stays out of every latency and
        hit-ratio aggregate (resilience never runs on a failed read, so its
        counters stay untouched too).
        """
        if result.failed:
            self.unavailable_reads += 1
            return
        if result.degraded:
            self.degraded_reads += 1
        if result.retries:
            self.retries_total += result.retries
        if result.hedged:
            self.hedged_reads += 1
            if result.hedge_won:
                self.hedge_wins += 1
        count = self._count
        buffer = self._buffer
        if count == buffer.shape[0]:
            buffer = self._grown(count + 1)
        buffer[count] = result.latency_ms if latency_ms is None else latency_ms
        self._count = count + 1
        hit_type = result.hit_type
        if hit_type is HitType.FULL:
            self.full_hits += 1
        elif hit_type is HitType.PARTIAL:
            self.partial_hits += 1
        else:
            self.misses += 1
        self.cache_chunks_total += result.chunks_from_cache
        self.backend_chunks_total += result.chunks_from_backend
        self.neighbor_chunks_total += result.chunks_from_neighbors

    def _grown(self, needed: int) -> np.ndarray:
        """The latency buffer, doubled until it holds ``needed`` latencies."""
        capacity = self._buffer.shape[0]
        while capacity < needed:
            capacity *= 2
        buffer = np.empty(capacity, dtype=np.float64)
        buffer[:self._count] = self._buffer[:self._count]
        self._buffer = buffer
        return buffer

    def record_block(self, latencies_ms, cache_chunks, chunks_per_read: int,
                     degraded: int = 0, retries: int = 0, hedged: int = 0,
                     hedge_wins: int = 0, unavailable: int = 0) -> None:
        """Batched twin of :meth:`record` for a block of reads.

        Equivalent to one ``record`` call per entry, in order, for reads
        that each took ``chunks_per_read`` chunks, ``cache_chunks[i]`` of them
        from the local cache and the rest from the backend (``None``: every
        read a backend miss), none from a neighbour — plus ``unavailable``
        failed reads, which have no entry.  ``retries`` is the block's total
        of its reads' ``retries``; ``degraded``, ``hedged`` and
        ``hedge_wins`` count its reads with ``degraded``, ``hedged`` and
        ``hedge_won`` set.  The engine's wave
        dispatch lands whole blocks of reads, so the buffer append and every
        counter bump collapse into one call.
        """
        self.degraded_reads += degraded
        self.retries_total += retries
        self.hedged_reads += hedged
        self.hedge_wins += hedge_wins
        self.unavailable_reads += unavailable
        block = np.asarray(latencies_ms, dtype=np.float64)
        size = block.shape[0]
        if size == 0:
            return
        count = self._count
        buffer = self._buffer
        needed = count + size
        if needed > buffer.shape[0]:
            buffer = self._grown(needed)
        buffer[count:needed] = block
        self._count = needed
        chunks = chunks_per_read * size
        if cache_chunks is None:
            self.misses += size
            self.backend_chunks_total += chunks
            return
        full = cache_chunks.count(chunks_per_read)
        misses = cache_chunks.count(0)
        cached = sum(cache_chunks)
        self.full_hits += full
        self.partial_hits += size - full - misses
        self.misses += misses
        self.cache_chunks_total += cached
        self.backend_chunks_total += chunks - cached

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def latencies_ms(self) -> list[float]:
        """Recorded latencies, oldest first (materialized as a list)."""
        return self._buffer[: self._count].tolist()

    def latencies_array(self) -> np.ndarray:
        """Read-only view of the recorded latencies (no copy)."""
        view = self._buffer[: self._count]
        view.flags.writeable = False
        return view

    @property
    def count(self) -> int:
        """Number of reads recorded."""
        return self._count

    @property
    def mean_latency_ms(self) -> float:
        """Average read latency (0 when empty) — the y-axis of Figs. 2, 6, 8."""
        return float(self._buffer[: self._count].mean()) if self._count else 0.0

    @property
    def hit_ratio(self) -> float:
        """(full + partial hits) / reads — the y-axis of Fig. 7."""
        return (self.full_hits + self.partial_hits) / self._count if self._count else 0.0

    @property
    def full_hit_ratio(self) -> float:
        """full hits / reads."""
        return self.full_hits / self._count if self._count else 0.0

    @property
    def partial_hit_ratio(self) -> float:
        """partial hits / reads."""
        return self.partial_hits / self._count if self._count else 0.0

    def percentile(self, percentile: float) -> float:
        """Latency percentile in [0, 100] using nearest-rank interpolation."""
        if not self._count:
            return 0.0
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be between 0 and 100")
        return _nearest_rank(np.sort(self._buffer[: self._count]), percentile)

    @property
    def median_latency_ms(self) -> float:
        """50th percentile latency."""
        return self.percentile(50.0)

    @property
    def p50_latency_ms(self) -> float:
        """50th percentile latency (alias of :attr:`median_latency_ms`)."""
        return self.median_latency_ms

    @property
    def p95_latency_ms(self) -> float:
        """95th percentile latency."""
        return self.percentile(95.0)

    @property
    def p99_latency_ms(self) -> float:
        """99th percentile latency."""
        return self.percentile(99.0)

    def throughput_rps(self, duration_s: float) -> float:
        """Requests per second of simulated time (0 for an empty duration)."""
        if duration_s <= 0:
            return 0.0
        return self._count / duration_s

    def summary(self) -> dict[str, float]:
        """Dictionary summary used by the experiment reports.

        The three percentiles come from one sort of the buffer.
        """
        median = p95 = p99 = 0.0
        if self._count:
            ordered = np.sort(self._buffer[: self._count])
            median, p95, p99 = (_nearest_rank(ordered, percentile)
                                for percentile in (50.0, 95.0, 99.0))
        return {
            "reads": float(self.count),
            "mean_latency_ms": self.mean_latency_ms,
            "median_latency_ms": median,
            "p95_latency_ms": p95,
            "p99_latency_ms": p99,
            "hit_ratio": self.hit_ratio,
            "full_hit_ratio": self.full_hit_ratio,
            "partial_hit_ratio": self.partial_hit_ratio,
            "cache_chunks": float(self.cache_chunks_total),
            "backend_chunks": float(self.backend_chunks_total),
            "neighbor_chunks": float(self.neighbor_chunks_total),
            "degraded_reads": float(self.degraded_reads),
            "unavailable_reads": float(self.unavailable_reads),
            "retries_total": float(self.retries_total),
            "hedged_reads": float(self.hedged_reads),
            "hedge_wins": float(self.hedge_wins),
        }

    @classmethod
    def merge_all(cls, stats: "Iterable[LatencyStats]") -> "LatencyStats":
        """Merge any number of stats objects in one pass (single allocation).

        The deployment-wide aggregates of multi-region engine runs use this
        instead of chaining pairwise merges, which would copy the accumulated
        buffer once per region.
        """
        parts = list(stats)
        total = sum(part._count for part in parts)
        merged = cls(capacity=max(total, 1))
        offset = 0
        for part in parts:
            count = part._count
            merged._buffer[offset: offset + count] = part._buffer[:count]
            offset += count
        for name in cls._COUNTERS:
            setattr(merged, name, sum(getattr(part, name) for part in parts))
        merged._count = total
        return merged


# ---------------------------------------------------------------------- #
# Recovery-aware reporting: windowed tail-latency time series
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class LatencyWindow:
    """Aggregates of the reads that *started* in one time window.

    Attributes:
        start_s: inclusive window start (simulated seconds).
        end_s: exclusive window end.
        reads: successful reads in the window (failed reads excluded).
        mean_ms / p50_ms / p99_ms: latency aggregates of those reads
            (0.0 for an empty window).
        degraded: degraded reads in the window.
        unavailable: failed (unavailable) reads in the window.
    """

    start_s: float
    end_s: float
    reads: int
    mean_ms: float
    p50_ms: float
    p99_ms: float
    degraded: int
    unavailable: int


def _nearest_rank(ordered: np.ndarray, percentile: float) -> float:
    rank = max(0, math.ceil(percentile / 100.0 * ordered.shape[0]) - 1)
    return float(ordered[rank])


def windowed_latency_series(results: Sequence[ReadResult], window_s: float,
                            start_s: float = 0.0,
                            end_s: float | None = None) -> list[LatencyWindow]:
    """Bucket read results into fixed windows of simulated time.

    This is the recovery-aware view of a faulted run: the per-window p99
    spikes while a disturbance is active and settles back once caches are
    rebuilt, making reconfiguration lag visible where a run-wide percentile
    would smear it out.  Reads are assigned to the window containing their
    ``started_at_s``; percentiles use the same nearest-rank rule as
    :meth:`LatencyStats.percentile`.  Empty windows are kept (zero
    aggregates) so the series is contiguous and plottable as-is.

    Args:
        results: read results from any number of regions/clients (order
            irrelevant).
        window_s: window width in simulated seconds (must be positive).
        start_s: start of the first window.
        end_s: coverage horizon; defaults to the latest read start.  The last
            window is extended/truncated on a whole-window grid so every read
            in ``[start_s, end_s]`` lands in some window.
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if end_s is None:
        end_s = max((result.started_at_s for result in results), default=start_s)
    if end_s < start_s:
        raise ValueError("end_s must not precede start_s")
    window_count = max(1, math.ceil((end_s - start_s) / window_s - 1e-9))
    buckets: list[list[float]] = [[] for _ in range(window_count)]
    degraded = [0] * window_count
    unavailable = [0] * window_count
    for result in results:
        index = int((result.started_at_s - start_s) / window_s)
        if index < 0 or index >= window_count:
            continue
        if result.failed:
            unavailable[index] += 1
            continue
        buckets[index].append(result.latency_ms)
        if result.degraded:
            degraded[index] += 1
    series: list[LatencyWindow] = []
    for index in range(window_count):
        latencies = buckets[index]
        if latencies:
            ordered = np.sort(np.asarray(latencies, dtype=np.float64))
            mean_ms = float(ordered.mean())
            p50_ms = _nearest_rank(ordered, 50.0)
            p99_ms = _nearest_rank(ordered, 99.0)
        else:
            mean_ms = p50_ms = p99_ms = 0.0
        series.append(LatencyWindow(
            start_s=start_s + index * window_s,
            end_s=start_s + (index + 1) * window_s,
            reads=len(latencies),
            mean_ms=mean_ms,
            p50_ms=p50_ms,
            p99_ms=p99_ms,
            degraded=degraded[index],
            unavailable=unavailable[index],
        ))
    return series
