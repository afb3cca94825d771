"""§VI micro-measurements: request-monitor overhead and cache-manager run time.

The paper reports that processing a client request in the Request Monitor plus
Cache Manager takes ≈ 0.5 ms on average, that one run of the configuration
algorithm takes ≈ 5 ms, and that its cost grows with the square of the cache
size rather than with the dataset size (thanks to the early-stop optimisation).
This module measures the same quantities on the Python implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.backend.object_store import ErasureCodedStore
from repro.core.agar_node import AgarNode, AgarNodeConfig
from repro.core.cache_manager import CacheManagerConfig
from repro.experiments.common import MEGABYTE, ExperimentSettings
from repro.geo.topology import default_topology
from repro.workload.workload import generate_requests


@dataclass(frozen=True)
class MicrobenchResult:
    """Timing results mirroring the §VI numbers."""

    request_processing_ms: float
    reconfiguration_ms: float
    cache_capacity_mb: float
    candidate_keys: int


def run_microbench(settings: ExperimentSettings | None = None,
                   cache_capacity_bytes: int = 10 * MEGABYTE,
                   client_region: str = "frankfurt",
                   use_early_stop: bool = True) -> MicrobenchResult:
    """Measure per-request processing and reconfiguration time of one Agar node."""
    settings = settings or ExperimentSettings.quick()
    topology = default_topology(seed=settings.seed)
    store = ErasureCodedStore(topology)
    store.populate(settings.object_count, settings.object_size)

    manager_config = CacheManagerConfig(
        stop_after_extra_keys=25 if use_early_stop else None,
    )
    node = AgarNode(
        client_region, store, cache_capacity_bytes,
        config=AgarNodeConfig(manager=manager_config),
    )

    workload = settings.workload(skew=1.1)
    requests = generate_requests(workload, seed=settings.seed)

    start = time.perf_counter()
    for request in requests:
        node.request_monitor.record_request(request.key)
    request_processing_ms = (time.perf_counter() - start) * 1000.0 / max(len(requests), 1)

    popularity = node.request_monitor.end_period()
    start = time.perf_counter()
    node.cache_manager.reconfigure(popularity)
    reconfiguration_ms = (time.perf_counter() - start) * 1000.0

    return MicrobenchResult(
        request_processing_ms=request_processing_ms,
        reconfiguration_ms=reconfiguration_ms,
        cache_capacity_mb=cache_capacity_bytes / MEGABYTE,
        candidate_keys=len(popularity),
    )


def run_capacity_scaling(settings: ExperimentSettings | None = None,
                         cache_sizes_mb: tuple[int, ...] = (5, 10, 20, 50)) -> list[MicrobenchResult]:
    """Reconfiguration time as a function of cache size, at a fixed catalogue (§VI).

    The other axis — a fixed cache over a growing catalogue — is
    ``benchmarks/test_bench_algorithm.py::test_bench_reconfiguration_catalogue_scaling``.
    """
    settings = settings or ExperimentSettings.quick()
    return [
        run_microbench(settings, cache_capacity_bytes=size_mb * MEGABYTE)
        for size_mb in cache_sizes_mb
    ]
