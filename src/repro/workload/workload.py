"""Workload specifications and request streams (the YCSB stand-in).

A :class:`WorkloadSpec` captures everything the paper's modified YCSB client is
configured with: the object population (300 × 1 MB), the number of read
operations (1,000 per run), and the request distribution (Zipfian with a given
skew, or uniform).  :func:`generate_requests` turns a spec into a deterministic
request stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.latency import DEFAULT_OBJECT_SIZE
from repro.workload.zipfian import KeyDistribution, UniformDistribution, ZipfianDistribution

#: Key prefix used for generated objects, matching ``ErasureCodedStore.populate``.
DEFAULT_KEY_PREFIX = "object"


@dataclass(frozen=True, slots=True)
class Request:
    """One client operation.

    Attributes:
        key: object key.
        operation: ``"read"`` (the paper's workloads are read-only) or
            ``"write"`` (used only by the writes extension).
        sequence: position of the request in the stream.
    """

    key: str
    operation: str = "read"
    sequence: int = 0


@dataclass(frozen=True)
class WorkloadSpec:
    """Description of one experiment workload.

    Attributes:
        name: label used in reports ("zipf-1.1", "uniform", ...).
        object_count: number of objects in the store (paper: 300).
        object_size: size of each object in bytes (paper: 1 MB).
        request_count: number of read operations per run (paper: 1,000).
        distribution: ``"zipfian"`` or ``"uniform"``.
        skew: Zipfian exponent (ignored for uniform).
        key_prefix: object key prefix.
        seed: base RNG seed; per-run seeds derive from it.
    """

    name: str = "zipf-1.1"
    object_count: int = 300
    object_size: int = DEFAULT_OBJECT_SIZE
    request_count: int = 1000
    distribution: str = "zipfian"
    skew: float = 1.1
    key_prefix: str = DEFAULT_KEY_PREFIX
    seed: int = 42

    def __post_init__(self) -> None:
        if self.object_count <= 0:
            raise ValueError("object_count must be positive")
        if self.object_size <= 0:
            raise ValueError("object_size must be positive")
        if self.request_count < 0:
            raise ValueError("request_count must be non-negative")
        if self.distribution not in ("zipfian", "uniform"):
            raise ValueError("distribution must be 'zipfian' or 'uniform'")

    def key_for_rank(self, rank: int) -> str:
        """Object key for popularity rank ``rank`` (rank 0 = most popular)."""
        if not 0 <= rank < self.object_count:
            raise ValueError(f"rank {rank} out of range 0..{self.object_count - 1}")
        return f"{self.key_prefix}-{rank}"

    def build_distribution(self, seed: int | None = None) -> KeyDistribution:
        """Instantiate the key distribution with the given (or spec) seed."""
        effective_seed = self.seed if seed is None else seed
        if self.distribution == "uniform":
            return UniformDistribution(self.object_count, seed=effective_seed)
        return ZipfianDistribution(self.object_count, skew=self.skew, seed=effective_seed)


#: The paper's default workload (§V-A): 300 × 1 MB objects, 1,000 reads, Zipf 1.1.
PAPER_WORKLOAD = WorkloadSpec()

#: Arrival-process names understood by :class:`ArrivalSpec` and the engine.
ARRIVAL_CLOSED = "closed"
ARRIVAL_POISSON = "poisson"


@dataclass(frozen=True, slots=True)
class ArrivalSpec:
    """How each client paces its requests.

    Attributes:
        process: ``"closed"`` — the next request is issued when the previous
            one completes (YCSB's closed loop, the paper's setting) — or
            ``"poisson"`` — open-loop Poisson arrivals independent of
            completions.
        rate_rps: mean arrival rate per client in requests/second (Poisson
            only).
    """

    process: str = ARRIVAL_CLOSED
    rate_rps: float | None = None

    def __post_init__(self) -> None:
        if self.process not in (ARRIVAL_CLOSED, ARRIVAL_POISSON):
            raise ValueError("process must be 'closed' or 'poisson'")
        if self.process == ARRIVAL_POISSON:
            if self.rate_rps is None or not 0 < self.rate_rps < math.inf:
                raise ValueError("poisson arrivals need a finite, positive rate_rps")
        elif self.rate_rps is not None:
            raise ValueError("closed-loop arrivals take no rate_rps")

    @property
    def is_open_loop(self) -> bool:
        """True for arrival processes decoupled from request completions."""
        return self.process == ARRIVAL_POISSON

    @property
    def mean_interarrival_s(self) -> float:
        """Mean time between arrivals of one client (Poisson only)."""
        if self.rate_rps is None:
            raise ValueError("closed-loop arrivals have no arrival rate")
        return 1.0 / self.rate_rps


def poisson_arrivals(rate_rps: float) -> ArrivalSpec:
    """Open-loop Poisson arrivals at ``rate_rps`` requests/second per client."""
    return ArrivalSpec(process=ARRIVAL_POISSON, rate_rps=rate_rps)


def uniform_workload(request_count: int = 1000, object_count: int = 300,
                     object_size: int = DEFAULT_OBJECT_SIZE, seed: int = 42) -> WorkloadSpec:
    """The paper's uniform workload variant (§V-C)."""
    return WorkloadSpec(
        name="uniform",
        object_count=object_count,
        object_size=object_size,
        request_count=request_count,
        distribution="uniform",
        seed=seed,
    )


def zipfian_workload(skew: float, request_count: int = 1000, object_count: int = 300,
                     object_size: int = DEFAULT_OBJECT_SIZE, seed: int = 42) -> WorkloadSpec:
    """A Zipfian workload with the given skew (§V-C sweeps 0.2 – 1.4)."""
    return WorkloadSpec(
        name=f"zipf-{skew:g}",
        object_count=object_count,
        object_size=object_size,
        request_count=request_count,
        distribution="zipfian",
        skew=skew,
        seed=seed,
    )


def generate_request_ranks(spec: WorkloadSpec, seed: int | None = None) -> np.ndarray:
    """Materialise one run's request stream as popularity ranks (no objects).

    This is the struct-of-arrays form of :func:`generate_requests`: the same
    distribution draws, returned as an integer rank array instead of a list of
    :class:`Request` objects.  ``spec.key_for_rank(rank)`` maps each entry back
    to its key; the request's ``sequence`` is its position in the array.  The
    discrete-event engine's lane scheduler consumes this form directly.
    """
    distribution = spec.build_distribution(seed)
    return distribution.sample_many(spec.request_count)


def generate_requests(spec: WorkloadSpec, seed: int | None = None) -> list[Request]:
    """Materialise the full request stream for one run (deterministic)."""
    ranks = generate_request_ranks(spec, seed)
    return [
        Request(key=spec.key_for_rank(int(rank)), operation="read", sequence=index)
        for index, rank in enumerate(ranks)
    ]


def request_frequency(requests: list[Request]) -> dict[str, int]:
    """Access counts per key for a materialised request stream."""
    counts: dict[str, int] = {}
    for request in requests:
        counts[request.key] = counts.get(request.key, 0) + 1
    return counts
