"""A solve leaves few objects for the garbage collector to track.

``KnapsackSolver`` stores every ``MaxV`` state it makes as a row of a NumPy
node pool, not as a Python object, so what a :class:`SolverResult` keeps
alive — the pool, the winner and one entry per option of each key the DP
reached — grows with the keys processed, not with the states stored.  The
instance is the end-to-end benchmark's reconfiguration shape: 1,024 × 1 MiB
objects, a 34 MiB cache (305 chunks), after three periods of 3,000 Zipf 1.1
reads.
"""

import gc

from repro.backend import ErasureCodedStore
from repro.core.agar_node import AgarNode
from repro.geo import default_topology
from repro.workload.workload import generate_request_ranks, zipfian_workload

MEGABYTE = 1024 * 1024

#: GC-tracked objects a result may keep alive per key processed.
PER_KEY = 20


def reconfig_shape(seed: int = 7):
    """The cache manager and the option table of the shape's third period."""
    store = ErasureCodedStore(default_topology(seed=seed))
    store.populate(object_count=1024, object_size=MEGABYTE)
    node = AgarNode("frankfurt", store, cache_capacity_bytes=34 * MEGABYTE)
    for period in range(3):
        workload = zipfian_workload(1.1, request_count=3000, object_count=1024,
                                    seed=seed + period)
        for rank in generate_request_ranks(workload).tolist():
            node.request_monitor.record_request(workload.key_for_rank(rank))
        if period < 2:
            node.reconfigure(30.0 * (period + 1))
    manager = node.cache_manager
    return manager, manager.generate_options(node.request_monitor.end_period())


def test_a_result_keeps_few_tracked_objects_alive():
    manager, options = reconfig_shape()
    manager.solve(options)   # stamps the options the DP reaches, which the table keeps
    gc.collect()
    before = len(gc.get_objects())
    result = manager.solve(options)
    gc.collect()
    kept = len(gc.get_objects()) - before
    assert result.keys_processed >= 50
    assert kept <= PER_KEY * result.keys_processed, kept
    assert result.best.weight <= manager.capacity_chunks
