"""The equivalence oracle: live gateways replay a seeded simulated trace
and must reproduce its decision ledgers bit-for-bit.

Each case runs the seeded :class:`EventEngine` with kept results, rebuilds
the trace (reads + reconfiguration ticks + fault transitions), replays it
through a freshly deployed :class:`ServeCluster` over real sockets, and
compares: every ledger entry (hit/miss class, chunk counts, backend
placement, degraded/failed flags, reconfiguration points) and the final
cache snapshots must match exactly.
"""

from __future__ import annotations

import pytest

from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig
from repro.serve.gateway import ServeCluster
from repro.serve.ledger import KIND_FAULT, KIND_TICK, diff_ledgers
from repro.serve.replay import replay_trace
from repro.serve.trace import run_and_trace, trace_and_ledgers
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
from repro.sim.faults import BackendBrownout, FaultSchedule, RegionOutage
from repro.workload.workload import ArrivalSpec, WorkloadSpec

from serve_helpers import MEGABYTE


def _workload(request_count: int, seed: int = 7,
              object_count: int = 30) -> WorkloadSpec:
    return WorkloadSpec(object_count=object_count, object_size=32 * 1024,
                        request_count=request_count, seed=seed)


CASES = {
    "agar-two-regions": EngineConfig(
        workload=_workload(120),
        regions=[RegionSpec(region="frankfurt", clients=2, strategy="agar"),
                 RegionSpec(region="sydney", clients=1, strategy="lru-3")],
        cache_capacity_bytes=2 * MEGABYTE,
    ),
    "legacy-piggyback-lfu": EngineConfig(
        workload=_workload(200),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy="lfu-3")],
        cache_capacity_bytes=MEGABYTE,
    ),
    "timer-lfu-ticks": EngineConfig(
        workload=_workload(150),
        regions=[RegionSpec(region="frankfurt", clients=2, strategy="lfu-5"),
                 RegionSpec(region="dublin", clients=1,
                            strategy="lfu-online-4")],
        cache_capacity_bytes=MEGABYTE,
    ),
    "faulted-agar": EngineConfig(
        workload=_workload(150, seed=11),
        regions=[RegionSpec(region="frankfurt", clients=2, strategy="agar"),
                 RegionSpec(region="sydney", clients=1, strategy="lfu-5")],
        cache_capacity_bytes=2 * MEGABYTE,
        faults=FaultSchedule([RegionOutage("sao_paulo", 0.5, 3.0),
                              BackendBrownout("n_virginia", 1.0, 4.0, 3.0)]),
    ),
    "poisson-open-loop": EngineConfig(
        workload=_workload(80, seed=9, object_count=25),
        regions=[RegionSpec(region="frankfurt", clients=3,
                            strategy="backend"),
                 RegionSpec(region="dublin", clients=2,
                            strategy="lru-online-4")],
        cache_capacity_bytes=MEGABYTE,
        arrival=ArrivalSpec(process="poisson", rate_rps=50.0),
    ),
}


async def _replay_against_cluster(config, trace):
    cluster = ServeCluster.from_config(config, seed=trace.seed)
    async with cluster:
        live = await replay_trace(cluster.addresses, trace)
    return cluster, live


@pytest.mark.parametrize("name", sorted(CASES))
def test_ledgers_bit_identical(name, run):
    config = CASES[name]
    result, trace, expected = run_and_trace(config, seed=3)
    cluster, live = run(_replay_against_cluster(config, trace))
    for region, expected_ledger in expected.items():
        diff = diff_ledgers(expected_ledger, live[region])
        assert diff is None, f"{name}/{region}: {diff}"
    # The served deployment must also end in the simulator's cache state.
    for region, region_result in result.regions.items():
        live_snapshot = cluster.gateways[region].strategy.cache_snapshot()
        assert region_result.cache_snapshot == live_snapshot, (
            f"{name}/{region}: final cache snapshots diverge")


def test_every_simulated_decision_is_covered(run):
    """The ledger carries real decisions: hits, misses and placements."""
    config = CASES["agar-two-regions"]
    result, trace, expected = run_and_trace(config, seed=5)
    _cluster, live = run(_replay_against_cluster(config, trace))
    for region, region_result in result.regions.items():
        reads = [entry for entry in live[region] if entry.kind == "read"]
        kept = region_result.results
        assert len(reads) == len(kept)
        stats = region_result.stats
        assert sum(1 for e in reads if e.hit == "full") == stats.full_hits
        assert sum(1 for e in reads if e.hit == "partial") == stats.partial_hits
        assert sum(e.cache_chunks for e in reads) == stats.cache_chunks_total
        assert sum(e.backend_chunks for e in reads) == stats.backend_chunks_total


def test_reconfiguration_points_match(run):
    """Ticks land exactly where the engine's timer scheduler put them."""
    config = CASES["timer-lfu-ticks"]
    result, trace, expected = run_and_trace(config, seed=2)
    ticks = {region: [op for op in ops if op.kind == KIND_TICK]
             for region, ops in trace.regions.items()}
    assert any(ticks.values()), "case must exercise timer reconfiguration"
    for region, ops in trace.regions.items():
        period = 30.0
        for position, op in enumerate(ops):
            if op.kind != KIND_TICK:
                continue
            assert op.at % period == pytest.approx(0.0)
            later_reads = [other for other in ops[position + 1:]
                           if other.kind == "read"]
            earlier_reads = [other for other in ops[:position]
                            if other.kind == "read"]
            assert all(other.at >= op.at for other in later_reads)
            assert all(other.at < op.at for other in earlier_reads)
    _cluster, live = run(_replay_against_cluster(config, trace))
    for region, expected_ledger in expected.items():
        assert [e for e in live[region] if e.kind == KIND_TICK] == \
            [e for e in expected_ledger if e.kind == KIND_TICK]


def test_fault_transitions_and_degraded_reads_match(run):
    config = CASES["faulted-agar"]
    result, trace, expected = run_and_trace(config, seed=3)
    degraded = sum(1 for ledger in expected.values()
                   for entry in ledger if entry.degraded)
    faults = sum(1 for ledger in expected.values()
                 for entry in ledger if entry.kind == KIND_FAULT)
    assert degraded > 0, "case must exercise degraded reads"
    assert faults >= len(expected), "case must exercise fault transitions"
    _cluster, live = run(_replay_against_cluster(config, trace))
    for region, expected_ledger in expected.items():
        assert diff_ledgers(expected_ledger, live[region]) is None


def test_payload_cluster_is_decision_equivalent(run):
    """Real encoded payloads change the bytes served, not one decision."""
    config = EngineConfig(
        workload=WorkloadSpec(object_count=15, object_size=4096,
                              request_count=80, seed=7),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy="lru-3")],
        cache_capacity_bytes=MEGABYTE,
    )
    result, trace, expected = run_and_trace(config, seed=1)

    async def scenario():
        cluster = ServeCluster.from_config(config, seed=1, payloads=True)
        async with cluster:
            return await replay_trace(cluster.addresses, trace)

    live = run(scenario())
    assert diff_ledgers(expected["frankfurt"], live["frankfurt"]) is None


def test_trace_requires_kept_results():
    config = CASES["legacy-piggyback-lfu"]
    result = EventEngine(config).run(3)
    with pytest.raises(ValueError, match="keep_results"):
        trace_and_ledgers(config, result, seed=3)


def test_collaboration_and_resilience_are_rejected():
    collab = EngineConfig(
        workload=_workload(20),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy="agar"),
                 RegionSpec(region="dublin", clients=1, strategy="agar")],
        cache_capacity_bytes=MEGABYTE,
        collaboration=True,
    )
    with pytest.raises(ValueError, match="collaboration"):
        run_and_trace(collab, seed=1)
    resilient = EngineConfig(
        workload=_workload(20),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy="lru-3")],
        cache_capacity_bytes=MEGABYTE,
        client=ClientConfig(resilience=ResilienceConfig(retry_budget=2)),
    )
    with pytest.raises(ValueError, match="resilient"):
        run_and_trace(resilient, seed=1)
