"""Workload substrate: YCSB-style request generation (read-only, Zipfian/uniform)."""

from repro.workload.workload import (
    ARRIVAL_CLOSED,
    ARRIVAL_POISSON,
    DEFAULT_KEY_PREFIX,
    PAPER_WORKLOAD,
    ArrivalSpec,
    Request,
    WorkloadSpec,
    generate_requests,
    iter_requests,
    poisson_arrivals,
    request_frequency,
    uniform_workload,
    zipfian_workload,
)
from repro.workload.zipfian import (
    KeyDistribution,
    UniformDistribution,
    ZipfianDistribution,
    top_k_share,
    zipfian_cdf,
)

__all__ = [
    "ARRIVAL_CLOSED",
    "ARRIVAL_POISSON",
    "ArrivalSpec",
    "DEFAULT_KEY_PREFIX",
    "KeyDistribution",
    "PAPER_WORKLOAD",
    "Request",
    "UniformDistribution",
    "WorkloadSpec",
    "ZipfianDistribution",
    "generate_requests",
    "iter_requests",
    "poisson_arrivals",
    "request_frequency",
    "top_k_share",
    "uniform_workload",
    "zipfian_cdf",
    "zipfian_workload",
]
