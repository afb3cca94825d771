"""Request-monitor overhead microbenchmark (§VI, guarded).

The paper quotes ≈ 0.5 ms to process one client request in the Request
Monitor + Cache Manager.  ``test_bench_request_monitor`` times the monitor
alone over a full Zipfian request stream (the shape the engine feeds it),
so the guarded number tracks the true per-request bookkeeping cost — EWMA
updates and period accounting — rather than a single-key best case.
"""

from conftest import emit

from repro.backend import ErasureCodedStore
from repro.core.agar_node import AgarNode
from repro.geo import default_topology
from repro.geo.latency import DEFAULT_OBJECT_SIZE
from repro.workload.workload import generate_requests


def test_bench_request_monitor(benchmark, settings):
    """Per-request monitor overhead over the quick-scale Zipfian stream."""
    store = ErasureCodedStore(default_topology(seed=settings.seed))
    store.populate(settings.object_count, DEFAULT_OBJECT_SIZE)
    node = AgarNode("frankfurt", store, cache_capacity_bytes=10 * 1024 * 1024)
    monitor = node.request_monitor
    keys = [request.key for request in
            generate_requests(settings.workload(skew=1.1), seed=settings.seed)]
    record = monitor.record_request

    def record_stream():
        for key in keys:
            record(key)

    benchmark(record_stream)
    per_request_us = (benchmark.stats.stats.mean / max(len(keys), 1)) * 1e6
    benchmark.extra_info["us_per_request"] = round(per_request_us, 3)
    benchmark.extra_info["requests_per_round"] = len(keys)
    emit("§VI request-monitor overhead (guarded)",
         f"  {len(keys)} requests/round, {per_request_us:.2f} µs per request "
         "(paper budget: ≈500 µs for monitor + manager)")
    # Generous sanity ceiling, not a timing gate (that is the baseline's job).
    assert per_request_us < 500.0
