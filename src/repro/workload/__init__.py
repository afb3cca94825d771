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
    poisson_arrivals,
    request_frequency,
    uniform_workload,
    zipfian_workload,
)
from repro.workload.zipfian import (
    KeyDistribution,
    UniformDistribution,
    ZipfianDistribution,
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
    "poisson_arrivals",
    "request_frequency",
    "uniform_workload",
    "zipfian_workload",
]
