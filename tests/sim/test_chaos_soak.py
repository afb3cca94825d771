"""Chaos soak: random fault schedules × strategies × resilience settings.

Hypothesis generates valid (non-overlapping) fault schedules — outages,
brownouts and AZ failures over random windows — and drives small engine runs
with retries/hedging randomly enabled.  Whatever the weather, the engine-wide
invariants must hold:

* accounting closes: every issued request is either a latency sample or an
  unavailable read, and the per-read resilience counters never double-count;
* simulated time is monotone within each client's request stream;
* the lane scheduler stays bit-identical to the heap loop of
  ``tests/reference/heap_scheduler.py`` (and, on a sampled subset, the
  sharded path to its in-process fallback).

The example counts are deliberately small — each example is a full engine
run — so the soak stays inside the tier-1 time budget.
"""

import asyncio

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig
from repro.serve.chaos import ChaosInjector, ChaosSchedule, GatewayCrash
from repro.serve.gateway import ServeCluster
from repro.serve.ledger import (
    KIND_CRASH,
    KIND_RECOVERY,
    ledger_from_lines,
    ledger_to_lines,
)
from repro.serve.loadgen import WireLoadSpec, WireResilience, run_wire_load
from repro.serve.supervisor import ClusterSupervisor, SupervisorConfig
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
from repro.sim.faults import (
    AZFailure,
    BackendBrownout,
    FaultSchedule,
    RegionOutage,
)
from repro.workload.workload import ArrivalSpec, zipfian_workload

from reference.heap_scheduler import execute_heap

MEGABYTE = 1024 * 1024

_COUNTERS = ("full_hits", "partial_hits", "misses", "cache_chunks_total",
             "backend_chunks_total", "neighbor_chunks_total",
             "degraded_reads", "unavailable_reads", "retries_total",
             "hedged_reads", "hedge_wins")


def assert_results_identical(fast, reference):
    """Bit-identity of two EngineResults (counters, latencies, reads)."""
    assert fast.duration_s == reference.duration_s
    assert set(fast.regions) == set(reference.regions)
    for region in fast.regions:
        fast_region, reference_region = fast.regions[region], reference.regions[region]
        assert np.array_equal(fast_region.stats.latencies_array(),
                              reference_region.stats.latencies_array())
        for counter in _COUNTERS:
            assert getattr(fast_region.stats, counter) == \
                getattr(reference_region.stats, counter), (region, counter)
        assert fast_region.results == reference_region.results

#: Regions faults may hit.  sao_paulo/tokyo/n_virginia perturb the backend
#: plans of the frankfurt/dublin clients; dublin additionally darks a client
#: region's own cache and its neighbour-catalog entries.
FAULT_REGIONS = ("sao_paulo", "tokyo", "n_virginia", "dublin")

_window = st.tuples(
    st.floats(min_value=0.0, max_value=60.0),
    st.floats(min_value=4.0, max_value=40.0),
)


def _build_schedule(draw_map):
    """One window at most per (kind, region): overlap-free by construction."""
    faults = []
    for (kind, region), window in draw_map.items():
        if window is None:
            continue
        start, length = window
        if kind == "outage":
            faults.append(RegionOutage(region, start, start + length))
        elif kind == "brownout":
            faults.append(BackendBrownout(region, start, start + length,
                                          multiplier=3.0))
        else:
            faults.append(AZFailure(region, start, start + length))
    return FaultSchedule(faults)


fault_schedules = st.fixed_dictionaries({
    (kind, region): st.one_of(st.none(), _window)
    for kind in ("outage", "brownout", "az")
    for region in FAULT_REGIONS
}).map(_build_schedule)

resilience_settings = st.sampled_from([
    None,
    ResilienceConfig(retry_budget=2, timeout_factor=1.05, backoff_base_ms=4.0),
    ResilienceConfig(retry_budget=1, timeout_factor=1.1, hedge=True,
                     hedge_quantile=0.7, hedge_min_samples=8),
    ResilienceConfig(retry_budget=2, timeout_factor=1.05, hedge=True,
                     hedge_quantile=0.6, hedge_min_samples=6,
                     emergency_reconfiguration=True),
])

strategy_pairs = st.sampled_from([
    ("agar", "agar"),
    ("agar", "lfu-5"),
    ("backend", "lru-5"),
])


def chaos_config(schedule, resilience, strategies, requests=60):
    client = ClientConfig(resilience=resilience) if resilience else None
    kwargs = {"client": client} if client is not None else {}
    return EngineConfig(
        workload=zipfian_workload(1.1, request_count=requests,
                                  object_count=20, seed=11),
        regions=(RegionSpec("frankfurt", clients=2, strategy=strategies[0]),
                 RegionSpec("dublin", clients=2, strategy=strategies[1])),
        cache_capacity_bytes=4 * MEGABYTE,
        faults=schedule,
        **kwargs,
    )


def assert_invariants(result, config):
    total_requests = config.workload.request_count * 4  # 2 regions × 2 clients
    merged = result.overall_stats()
    assert merged.count + merged.unavailable_reads == total_requests
    assert merged.hedge_wins <= merged.hedged_reads
    assert merged.hedged_reads <= merged.count + merged.unavailable_reads
    assert merged.retries_total >= 0
    for region_result in result.regions.values():
        stats = region_result.stats
        # Unavailable reads carry no hit classification or latency sample.
        assert stats.full_hits + stats.partial_hits + stats.misses == stats.count
        # Per-read counters must sum to the merged ones (no double count).
        reads = region_result.results
        assert sum(r.retries for r in reads) == stats.retries_total
        assert sum(1 for r in reads if r.hedged) == stats.hedged_reads
        assert sum(1 for r in reads if r.hedge_won) == stats.hedge_wins
        assert all(not r.hedge_won or r.hedged for r in reads)
        assert all(not r.failed or (r.retries == 0 and not r.hedged)
                   for r in reads)
        # Monotone simulated time: reads complete in start-time order.
        started = [r.started_at_s for r in reads]
        assert started == sorted(started)
        assert all(0.0 <= s <= result.duration_s for s in started)


class TestChaosSoak:
    @settings(max_examples=12, deadline=None)
    @given(schedule=fault_schedules, resilience=resilience_settings,
           strategies=strategy_pairs)
    def test_invariants_and_lane_equivalence(self, schedule, resilience,
                                             strategies):
        config = chaos_config(schedule, resilience, strategies)
        outcomes = []
        for execute in (EventEngine.execute, execute_heap):
            engine = EventEngine(config, keep_results=True)
            engine.topology.latency.reseed(config.topology_seed + 3)
            deployment = engine.build_deployment()
            outcomes.append(execute(engine, deployment, 3))
        fast, reference = outcomes
        assert_results_identical(fast, reference)
        assert_invariants(fast, config)

    @settings(max_examples=4, deadline=None)
    @given(schedule=fault_schedules, resilience=resilience_settings)
    def test_sharded_fallback_equivalence(self, schedule, resilience):
        """The (slower) third path on a sampled subset: in-process sharded
        runs are reproducible and satisfy the same invariants."""
        config = chaos_config(schedule, resilience, ("agar", "lfu-5"),
                              requests=40)
        first = EventEngine(config, keep_results=True).run_sharded(
            seed=3, processes=False)
        second = EventEngine(config, keep_results=True).run_sharded(
            seed=3, processes=False)
        assert_results_identical(first, second)
        assert_invariants(first, config)


# --------------------------------------------------------------------------- #
# Wire leg: the same chaos philosophy against a live in-process cluster.
# --------------------------------------------------------------------------- #

WIRE_REGIONS = ("frankfurt", "dublin")
WIRE_RATE_RPS = 400.0
WIRE_REQUESTS = 60  #: per region — keeps each example's wall run ≈ 0.15 s

#: Up to two generated kill times inside the run window.  Both regions may
#: crash (also simultaneously — the spare dies too), or the same region may
#: crash twice (the second kill hits the recovered gateway).
wire_crash_plans = st.lists(
    st.tuples(st.sampled_from(WIRE_REGIONS),
              st.floats(min_value=0.02, max_value=0.12)),
    max_size=2)

#: Optionally one wire-scale modeled fault window, delivered over the wire
#: as a dynamic ``/admin/fault`` install mid-run.
wire_fault_windows = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(("outage", "brownout")),
              st.sampled_from(("sao_paulo", "tokyo")),
              st.floats(min_value=0.0, max_value=0.05),
              st.floats(min_value=0.05, max_value=0.2)))


def _wire_schedule(crashes, window) -> ChaosSchedule:
    faults = None
    if window is not None:
        kind, region, start, length = window
        fault_type = RegionOutage if kind == "outage" else BackendBrownout
        faults = FaultSchedule([fault_type(region, start, start + length)])
    return ChaosSchedule(
        wire_faults=tuple(GatewayCrash(region, at) for region, at in crashes),
        fault_schedule=faults)


async def _wire_chaos_run(schedule: ChaosSchedule, seed: int):
    config = EngineConfig(
        workload=zipfian_workload(1.1, request_count=2 * WIRE_REQUESTS,
                                  object_count=20, object_size=16 * 1024,
                                  seed=11),
        regions=tuple(RegionSpec(region, clients=1, strategy="lru-3")
                      for region in WIRE_REGIONS),
        cache_capacity_bytes=4 * MEGABYTE,
    )
    spec = WireLoadSpec(
        workload=config.workload,
        arrival=ArrivalSpec(process="poisson", rate_rps=WIRE_RATE_RPS),
        connections=1, requests_per_connection=WIRE_REQUESTS,
        resilience=WireResilience(base_timeout_ms=120.0, backoff_cap_ms=25.0))
    cluster = ServeCluster.from_config(config, seed=seed, payloads=True)
    async with cluster:
        supervisor_config = SupervisorConfig(poll_interval_s=0.02)
        async with ClusterSupervisor(cluster, supervisor_config) as supervisor:
            injector = ChaosInjector(cluster, schedule)
            results, _ = await asyncio.gather(
                run_wire_load(cluster.addresses, spec, seed=seed),
                injector.run())
            # Supervisor convergence: every effective kill ends in a
            # completed recovery within a bounded window.
            for _ in range(150):
                if len(supervisor.recoveries) >= len(injector.crash_log):
                    break
                await asyncio.sleep(0.02)
            recoveries = list(supervisor.recoveries)
        healthy = all(gateway.port is not None
                      for gateway in cluster.gateways.values())
    return results, recoveries, injector.crash_log, cluster, healthy


class TestWireChaosSoak:
    @settings(max_examples=5, deadline=None)
    @given(crashes=wire_crash_plans, window=wire_fault_windows,
           seed=st.integers(min_value=0, max_value=2**16))
    def test_wire_conservation_and_ledger_integrity(self, crashes, window,
                                                    seed):
        schedule = _wire_schedule(crashes, window)
        results, recoveries, crash_log, cluster, healthy = asyncio.run(
            _wire_chaos_run(schedule, seed))

        # Conservation: every intended request is a latency sample, an
        # unavailable read, or a failover completion — whatever was killed.
        for region, result in results.items():
            stats, connections = result.stats, result.connections
            assert (stats.count + stats.unavailable_reads
                    + connections.failed_over == result.requests), region
            assert (stats.full_hits + stats.partial_hits + stats.misses
                    == stats.count), region

        # Supervisor convergence: every effective kill was recovered and the
        # cluster ends with every gateway bound and serving.
        assert len(recoveries) >= len(crash_log)
        assert healthy

        # Ledger integrity after every restart: entries survive the line
        # codec bit-exactly, and crash/recovery entries pair up in order.
        total_crash_entries = 0
        for region, ledger in cluster.ledgers().items():
            assert ledger_from_lines(ledger_to_lines(ledger)) == ledger
            crash_entries = [e for e in ledger if e.kind == KIND_CRASH]
            recovery_entries = [e for e in ledger if e.kind == KIND_RECOVERY]
            assert len(crash_entries) == len(recovery_entries), region
            for crash, recovery in zip(crash_entries, recovery_entries):
                assert crash.at <= recovery.at
            total_crash_entries += len(crash_entries)
        assert total_crash_entries == len(recoveries)
