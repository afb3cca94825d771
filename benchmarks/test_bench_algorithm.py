"""Micro-benchmarks of the algorithm itself (§VI numbers) and of the substrates.

The paper reports two performance figures for the Agar machinery: processing a
client request in the Request Monitor / Cache Manager takes ≈ 0.5 ms, and one
run of the cache-configuration algorithm takes ≈ 5 ms, with cost governed by
the cache size rather than by the dataset size.  These benchmarks measure the
same quantities, plus the raw Reed-Solomon throughput of the coding substrate.
"""

import numpy as np

from conftest import emit

from repro.core.knapsack import KnapsackSolver
from repro.erasure import ErasureCodec, ErasureCodingParams
from repro.experiments.ablation import synthetic_options
from repro.experiments.microbench import run_capacity_scaling, run_microbench
from repro.geo.latency import DEFAULT_OBJECT_SIZE


def test_bench_request_processing(benchmark, settings):
    """§VI: average time for the request monitor + cache manager per request."""
    result = run_microbench(settings, cache_capacity_bytes=10 * 1024 * 1024)

    from repro.backend import ErasureCodedStore
    from repro.core.agar_node import AgarNode
    from repro.geo import default_topology

    store = ErasureCodedStore(default_topology(seed=settings.seed))
    store.populate(settings.object_count, DEFAULT_OBJECT_SIZE)
    node = AgarNode("frankfurt", store, cache_capacity_bytes=10 * 1024 * 1024)

    benchmark(node.request_monitor.record_request, "object-1")
    emit("§VI request-monitor overhead",
         f"measured {result.request_processing_ms:.4f} ms per request (paper: ≈0.5 ms)")
    assert result.request_processing_ms < 2.0


def test_bench_reconfiguration(benchmark, settings):
    """§VI: one full run of the cache-configuration algorithm (10 MB cache)."""
    from repro.backend import ErasureCodedStore
    from repro.core.agar_node import AgarNode
    from repro.geo import default_topology
    from repro.workload.workload import generate_requests

    store = ErasureCodedStore(default_topology(seed=settings.seed))
    store.populate(settings.object_count, DEFAULT_OBJECT_SIZE)
    node = AgarNode("frankfurt", store, cache_capacity_bytes=10 * 1024 * 1024)
    for request in generate_requests(settings.workload(1.1), seed=settings.seed):
        node.request_monitor.record_request(request.key)
    popularity = node.request_monitor.end_period()

    benchmark.pedantic(node.cache_manager.reconfigure, args=(popularity,), rounds=5, iterations=1)
    emit("§VI cache-manager run time",
         f"candidate objects: {len(popularity)}; capacity: {node.cache_manager.capacity_chunks} chunks")


def test_bench_reconfiguration_scaling(benchmark, settings):
    """§VI: the algorithm's cost grows with the cache size, not the dataset size."""
    rows = benchmark.pedantic(run_capacity_scaling, kwargs={"settings": settings},
                              rounds=1, iterations=1)
    emit("Reconfiguration time vs cache size",
         "\n".join(f"  {row.cache_capacity_mb:5.0f} MB -> {row.reconfiguration_ms:8.1f} ms"
                   for row in rows))
    times = {row.cache_capacity_mb: row.reconfiguration_ms for row in rows}
    assert times[50] >= times[5]
    benchmark.extra_info["ms_per_size"] = {f"{size:.0f}MB": round(ms, 1) for size, ms in times.items()}


def test_bench_reconfiguration_catalogue_scaling(benchmark):
    """§VI, the other axis: at a fixed cache a reconfiguration costs what the cache costs.

    A 10 MB cache over 300 / 1,000 / 3,000 objects whose popularity ranking has
    the same head (``1000 / rank^1.1``, every object a candidate, the map in
    ranking order): the solver reaches the same keys and the same options are
    created at every size, so ten times the catalogue may cost at most 2.5
    times the run (5.8 times before options were stamped on reach).  One round
    reconfigures once at each size, back to back, so the two sizes of a round
    share the machine's state; the bound holds for the median round's ratio.
    The fastest round of each size is reported.
    """
    import statistics
    import time

    from repro.backend import ErasureCodedStore
    from repro.core.agar_node import AgarNode
    from repro.geo import default_topology

    managers, timings = {}, {}
    for objects in (300, 1000, 3000):
        store = ErasureCodedStore(default_topology(seed=7))
        store.populate(objects, 1024 * 1024)
        node = AgarNode("frankfurt", store, cache_capacity_bytes=10 * 1024 * 1024)
        popularity = {f"object-{rank}": 1000.0 / (rank + 1) ** 1.1 for rank in range(objects)}
        managers[objects] = (node.cache_manager, popularity)
        timings[objects] = []

    def one_round():
        for objects, (manager, popularity) in managers.items():
            start = time.perf_counter()
            manager.reconfigure(popularity)
            timings[objects].append(time.perf_counter() - start)

    benchmark.pedantic(one_round, rounds=40, iterations=1, warmup_rounds=2)
    fastest = {objects: min(times) * 1000.0 for objects, times in timings.items()}
    records = {objects: manager.history[-1] for objects, (manager, _) in managers.items()}
    emit("Reconfiguration time vs catalogue size (10 MB cache)",
         "\n".join(f"  {objects:5d} objects -> {ms:6.2f} ms  (keys processed {records[objects].keys_processed}, "
                   f"options stamped {records[objects].options_stamped} of "
                   f"{records[objects].options_generated})"
                   for objects, ms in fastest.items()))
    benchmark.extra_info["ms_per_size"] = {str(objects): round(ms, 2) for objects, ms in fastest.items()}
    ratio = statistics.median(large / small for large, small in zip(timings[3000], timings[300]))
    benchmark.extra_info["ratio_3000_to_300"] = round(ratio, 2)
    assert len({(record.keys_processed, record.options_stamped) for record in records.values()}) == 1
    assert ratio <= 2.5


def test_bench_knapsack_solver(benchmark):
    """Raw solver throughput on a 90-chunk cache with 60 candidate objects."""
    options = synthetic_options(object_count=60, skew=1.1, seed=5)
    solver = KnapsackSolver(capacity_weight=90)
    result = benchmark(solver.solve, options)
    assert result.best.weight <= 90


def test_bench_reed_solomon_encode(benchmark):
    """Encoding throughput of the RS(9, 3) codec on a 1 MB object."""
    codec = ErasureCodec(ErasureCodingParams(9, 3))
    payload = bytes(np.random.default_rng(0).integers(0, 256, 1024 * 1024, dtype=np.uint8))
    encoded = benchmark(codec.encode, "bench", payload)
    assert len(encoded.chunks) == 12


def test_bench_reed_solomon_decode_with_parity(benchmark):
    """Decoding throughput when three data chunks are missing (worst case)."""
    codec = ErasureCodec(ErasureCodingParams(9, 3))
    payload = bytes(np.random.default_rng(1).integers(0, 256, 1024 * 1024, dtype=np.uint8))
    encoded = codec.encode("bench", payload)
    available = {chunk.index: chunk for chunk in encoded.chunks if chunk.index not in (0, 1, 2)}
    result = benchmark(codec.decode, encoded.metadata, available)
    assert result == payload
