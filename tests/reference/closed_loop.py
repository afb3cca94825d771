"""The pre-engine closed loop: one client, one region, one strategy.

Before the discrete-event engine existed, an experiment run was this loop:
populate the store, build the region's read strategy, replay the request
stream with the clock advancing by each read's latency.  The engine must
reproduce it bit-identically on a 1-region / 1-client closed-loop
configuration; ``tests/sim/test_engine.py::TestLegacyEquivalence`` asserts it.
"""

from __future__ import annotations

from repro.backend.object_store import ErasureCodedStore
from repro.client.stats import LatencyStats
from repro.client.strategies import make_strategy
from repro.geo.topology import default_topology
from repro.sim.clock import SimulationClock
from repro.sim.engine import EngineConfig, RegionRunResult
from repro.workload.workload import generate_requests


def run_closed_loop(config: EngineConfig, seed: int) -> RegionRunResult:
    """One cold run of ``config``'s single region and client, the old way."""
    (spec,) = config.regions
    if spec.clients != 1:
        raise ValueError("the closed loop replays exactly one client")
    topology = default_topology(seed=config.topology_seed)
    topology.latency.reseed(config.topology_seed + seed)

    store = ErasureCodedStore(topology, params=config.params)
    store.populate(
        object_count=config.workload.object_count,
        object_size=config.workload.object_size,
        key_prefix=config.workload.key_prefix,
    )
    clock = SimulationClock()
    strategy = make_strategy(
        spec.strategy,
        store=store,
        client_region=spec.region,
        cache_capacity_bytes=config.cache_capacity_bytes,
        clock=clock,
        client_config=config.client,
        node_config=config.agar,
    )

    requests = generate_requests(config.workload, seed=seed)
    stats = LatencyStats(capacity=max(len(requests), 1))
    start = clock.now()

    for request in requests:
        result = strategy.read(request.key, now=clock.now())
        clock.advance_ms(result.latency_ms)
        if request.sequence >= config.warmup_requests:
            stats.record(result)

    return RegionRunResult(
        region=spec.region,
        strategy=spec.strategy,
        clients=1,
        stats=stats,
        duration_s=clock.now() - start,
        cache_snapshot=strategy.cache_snapshot(),
    )
