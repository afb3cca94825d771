"""Benchmarks of the discrete-event engine's replay loops.

Two guarded benchmarks:

* ``test_bench_engine_multi_client`` — the ISSUE 2 acceptance scenario at
  benchmark scale (2 regions × 4 Poisson clients, collaboration on); guards
  the engine's per-event overhead on the collaborative shape.
* ``test_bench_engine_scale_closed_loop`` — the ISSUE 3 acceptance scenario:
  256 closed-loop clients per region × 2 regions through the calendar/lane
  scheduler.
* ``test_bench_engine_faulted`` — the ISSUE 6 scenario: the closed-loop
  deployment with a mid-run region outage, so the fault-state checks and
  the degraded re-plan path on the hot read loop stay guarded.
* ``test_bench_engine_hedged_faulted`` — the ISSUE 8 scenario: the faulted
  shape with the resilience tier on (retries, hedging, emergency
  reconfiguration), guarding the resilient composition path's cost.
* ``test_bench_engine_million_lane`` — the ISSUE 7 acceptance scenario:
  262,144 closed-loop clients through the batched wave drainer must sustain
  at least 10^7 requests per wall-clock minute, and a 1,048,576-lane
  deployment must construct and step end to end.
* ``test_bench_agar_read_indexed`` — the ISSUE 23 micro-guard: 20,000
  ``read_indexed`` calls on one warm 300-key Agar strategy with no scheduler
  around them, so the read itself (count, remembered hints, one cache probe,
  selection, draws, result) is gated apart from the event loop.

* ``test_bench_resilient_read_indexed`` — the ISSUE 24 micro-guard: the same
  20,000 reads with ``engine_faulted``'s resilience block and its outage
  installed, so the resilient composer (retries, one hedge, the per-link
  deadline trackers) is gated apart from the event loop too.

The measured bodies exclude deployment construction (store population and
warm-up probes) so the numbers track the event loops themselves.
"""

import os
import time

from conftest import emit

from repro.backend import ErasureCodedStore
from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig, make_strategy
from repro.geo import default_topology
from repro.sim.clock import SimulationClock
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
from repro.sim.faults import FaultSchedule, FaultState, RegionOutage
from repro.workload.workload import (
    generate_request_ranks,
    poisson_arrivals,
    zipfian_workload,
)

MEGABYTE = 1024 * 1024


def test_bench_engine_multi_client(benchmark, settings):
    """Event-loop cost of a 2-region x 4-client Poisson run with collaboration."""
    workload = zipfian_workload(
        1.1, request_count=200, object_count=settings.object_count, seed=settings.seed,
    )
    config = EngineConfig(
        workload=workload,
        regions=(
            RegionSpec(region="frankfurt", clients=4),
            RegionSpec(region="sydney", clients=4),
        ),
        cache_capacity_bytes=10 * MEGABYTE,
        topology_seed=settings.seed,
        arrival=poisson_arrivals(2.0),
        collaboration=True,
    )
    engine = EventEngine(config)
    engine.topology.latency.reseed(config.topology_seed + 1)
    deployment = engine.build_deployment()

    result = benchmark(engine.execute, deployment, 1)

    total = result.total_requests
    emit(
        "engine multi-client replay",
        f"{total} requests over {len(config.regions)} regions x 4 clients, "
        f"simulated {result.duration_s:.1f} s, "
        f"throughput {result.throughput_rps:.1f} req/s (simulated)",
    )
    assert total == 8 * workload.request_count
    for region_result in result.regions.values():
        assert region_result.stats.count == 4 * workload.request_count


def test_bench_engine_scale_closed_loop(benchmark, settings):
    """Lane-scheduler throughput at 256 clients x 2 regions, closed loop.

    The benchmark times warm repetitions of `execute` against one deployment;
    the cold pass before them is timed outside the benchmark body and
    emitted alongside.
    """
    workload = zipfian_workload(
        1.1, request_count=20, object_count=settings.object_count, seed=settings.seed,
    )
    config = EngineConfig(
        workload=workload,
        regions=(
            RegionSpec(region="frankfurt", clients=256),
            RegionSpec(region="sydney", clients=256),
        ),
        cache_capacity_bytes=10 * MEGABYTE,
        topology_seed=settings.seed,
    )

    engine = EventEngine(config)
    engine.topology.latency.reseed(config.topology_seed + 1)
    deployment = engine.build_deployment()
    start = time.perf_counter()
    engine.execute(deployment, 1)
    cold_s = time.perf_counter() - start

    # The benchmark then measures warm repetitions against the same deployment.
    result = benchmark(engine.execute, deployment, 1)

    total = result.total_requests
    emit(
        "engine scale (256 clients x 2 regions, closed loop)",
        f"{total} requests; lane scheduler {cold_s * 1000:.0f} ms cold "
        f"({total / cold_s:.0f} req/s)",
    )
    assert total == 512 * workload.request_count


def test_bench_engine_million_lane(benchmark, settings):
    """Wave-drainer throughput at 262,144 closed-loop clients (ISSUE 7).

    The acceptance scenario for the batched lane drainer: 131,072 backend
    clients per region x 2 regions, 16 requests each, with per-request
    results off (the million-client operating mode).  The benchmark times
    warm replays and asserts the steady-state rate clears 10^7 requests per
    wall-clock minute; one cold pass (which includes the lazy lane-block
    materialisation) is timed separately and emitted alongside.

    In gated mode the test also constructs a 1,048,576-lane deployment
    (524,288 clients per region, one request each) and steps it end to end,
    so the million-lane headline is demonstrated — not extrapolated — in
    every gated run.

    ``run_bench.py`` enables gated mode (``AGAR_BENCH_GATED=1``) for full
    and ``--compare`` runs; smoke mode and plain pytest collection (the
    tier-1 suite picks this file up) keep a light 32,768-client shape that
    proves the wave path runs without spending minutes per invocation, and
    record the shape in ``extra_info`` so artifacts stay interpretable.
    """
    gated = os.environ.get("AGAR_BENCH_GATED") == "1"
    clients = 131072 if gated else 16384
    workload = zipfian_workload(
        1.1, request_count=16 if gated else 8,
        object_count=settings.object_count, seed=settings.seed,
    )
    config = EngineConfig(
        workload=workload,
        regions=(
            RegionSpec(region="frankfurt", clients=clients, strategy="backend"),
            RegionSpec(region="sydney", clients=clients, strategy="backend"),
        ),
        cache_capacity_bytes=10 * MEGABYTE,
        topology_seed=settings.seed,
    )
    engine = EventEngine(config, keep_results=False)
    engine.topology.latency.reseed(config.topology_seed + 1)
    deployment = engine.build_deployment()

    start = time.perf_counter()
    cold = engine.execute(deployment, 1)
    cold_s = time.perf_counter() - start

    durations: list[float] = []

    def run():
        begin = time.perf_counter()
        outcome = engine.execute(deployment, 1)
        durations.append(time.perf_counter() - begin)
        return outcome

    result = benchmark.pedantic(run, rounds=2 if gated else 1, iterations=1)
    total = result.total_requests
    steady_s = min(durations)
    per_minute = total / steady_s * 60.0

    lines = [
        f"steady state {steady_s:.2f} s for {total} requests over "
        f"{2 * clients} lanes "
        f"({per_minute / 1e6:.1f}M req/min; cold {cold_s:.2f} s)",
    ]
    benchmark.extra_info["clients"] = 2 * clients
    benchmark.extra_info["requests_per_minute"] = round(per_minute)
    benchmark.extra_info["cold_s"] = round(cold_s, 3)

    if gated:
        million_workload = zipfian_workload(
            1.1, request_count=1, object_count=settings.object_count,
            seed=settings.seed,
        )
        million_config = EngineConfig(
            workload=million_workload,
            regions=(
                RegionSpec(region="frankfurt", clients=524288, strategy="backend"),
                RegionSpec(region="sydney", clients=524288, strategy="backend"),
            ),
            cache_capacity_bytes=10 * MEGABYTE,
            topology_seed=settings.seed,
        )
        million_engine = EventEngine(million_config, keep_results=False)
        million_engine.topology.latency.reseed(million_config.topology_seed + 1)
        start = time.perf_counter()
        million_deployment = million_engine.build_deployment()
        million_result = million_engine.execute(million_deployment, 1)
        million_s = time.perf_counter() - start
        assert million_result.total_requests == 1_048_576
        benchmark.extra_info["million_lane_step_s"] = round(million_s, 2)
        lines.append(
            f"1,048,576 lanes constructed and stepped in {million_s:.2f} s "
            f"({million_result.total_requests / million_s:.0f} req/s)")

    emit(f"engine million-lane wave drainer ({2 * clients} clients, "
         "closed loop)",
         "\n".join(lines))
    assert total == 2 * clients * workload.request_count
    assert cold.total_requests == total
    # Light mode (tier-1 / smoke) only asserts the path runs; gated mode
    # enforces the ISSUE 7 rate criterion on the 262k-client shape.
    floor = 1.0e7 if gated else 1.0e6
    assert per_minute >= floor, (
        f"steady-state rate {per_minute:.0f} req/min below {floor:.0f}")


def test_bench_engine_faulted(benchmark, settings):
    """Lane-scheduler cost with a mid-run region outage (ISSUE 6).

    Same closed-loop shape as the scale benchmark at reduced client count,
    with a ``RegionOutage`` of Sao Paulo — a region inside the clients'
    nearest-9 plan — covering the middle of the run.  Guards the per-read
    fault-state check (the common no-fault case must stay a set lookup) and
    the degraded re-plan path itself.
    """
    workload = zipfian_workload(
        1.1, request_count=20, object_count=settings.object_count, seed=settings.seed,
    )
    config = EngineConfig(
        workload=workload,
        regions=(
            RegionSpec(region="frankfurt", clients=128),
            RegionSpec(region="dublin", clients=128),
        ),
        cache_capacity_bytes=10 * MEGABYTE,
        topology_seed=settings.seed,
        faults=FaultSchedule([RegionOutage("sao_paulo", start_s=5.0, end_s=15.0)]),
    )
    engine = EventEngine(config)
    engine.topology.latency.reseed(config.topology_seed + 1)
    deployment = engine.build_deployment()

    result = benchmark(engine.execute, deployment, 1)

    stats = result.overall_stats()
    total = result.total_requests
    emit(
        "engine faulted replay (256 clients, 10 s region outage)",
        f"{total} requests, simulated {result.duration_s:.1f} s; "
        f"{stats.degraded_reads} degraded, {stats.unavailable_reads} unavailable",
    )
    assert total == 256 * workload.request_count
    assert stats.degraded_reads > 0
    assert stats.unavailable_reads == 0


def test_bench_engine_hedged_faulted(benchmark, settings):
    """Resilient-read cost with a mid-run region outage (ISSUE 8).

    The faulted closed-loop shape with the recovery-aware resilience tier
    on: a per-read retry budget against a tight timeout factor, hedged
    fetches against the per-link quantile deadline, and emergency knapsack
    reconfiguration on the outage's onset and recovery.  Guards the
    per-chunk cost of the resilient composition path (which replaces the
    batched wave dispatch whenever resilience is active).
    """
    workload = zipfian_workload(
        1.1, request_count=20, object_count=settings.object_count, seed=settings.seed,
    )
    config = EngineConfig(
        workload=workload,
        regions=(
            RegionSpec(region="frankfurt", clients=128),
            RegionSpec(region="dublin", clients=128),
        ),
        cache_capacity_bytes=10 * MEGABYTE,
        topology_seed=settings.seed,
        client=ClientConfig(resilience=ResilienceConfig(
            retry_budget=1, timeout_factor=1.1, backoff_base_ms=4.0,
            hedge=True, hedge_quantile=0.7, hedge_min_samples=8,
            emergency_reconfiguration=True)),
        faults=FaultSchedule([RegionOutage("sao_paulo", start_s=5.0, end_s=15.0)]),
    )
    engine = EventEngine(config)
    engine.topology.latency.reseed(config.topology_seed + 1)
    deployment = engine.build_deployment()

    result = benchmark(engine.execute, deployment, 1)

    stats = result.overall_stats()
    total = result.total_requests
    emit(
        "engine hedged+faulted replay (256 clients, 10 s region outage, "
        "resilience on)",
        f"{total} requests, simulated {result.duration_s:.1f} s; "
        f"{stats.degraded_reads} degraded, {stats.retries_total} retries, "
        f"{stats.hedged_reads} hedged ({stats.hedge_wins} won)",
    )
    assert total == 256 * workload.request_count
    assert stats.degraded_reads > 0
    assert stats.unavailable_reads == 0
    assert stats.retries_total > 0
    assert stats.hedged_reads > 0


def _warm_agar_reads(settings, client_config=None, fault_from_period=None):
    """A warm 300-key Agar strategy for the read micro-guards.

    Three periods of Zipfian reads and timer-style reconfigurations warm the
    node (a configuration installed, its hinted chunks cached); ``sao_paulo``
    goes down at the start of period ``fault_from_period`` and stays down.
    Returns ``(strategy, ranks, now)``: the measured bodies replay the fixed
    rank stream at the one simulated instant ``now``, so every round does
    identical work.
    """
    store = ErasureCodedStore(default_topology(seed=settings.seed))
    store.populate(300, MEGABYTE)
    clock = SimulationClock()
    strategy = make_strategy("agar", store, "frankfurt", 10 * MEGABYTE, clock=clock,
                             client_config=client_config)
    strategy.set_external_reconfiguration(True)
    workload = zipfian_workload(1.1, request_count=20_000, object_count=300,
                                seed=settings.seed)
    strategy.prepare_indexed_reads(
        [workload.key_for_rank(rank) for rank in range(workload.object_count)])
    ranks = generate_request_ranks(workload, seed=settings.seed).tolist()
    read = strategy.read_indexed
    now = 0.0
    for period in range(3):
        if period == fault_from_period:
            strategy.set_fault_state(
                FaultState(down_backends=frozenset({"sao_paulo"})))
            strategy.react_to_fault(now)
        for rank in ranks[:3000]:
            now += 0.01
            clock.advance_to(now)
            read(rank, now)
        strategy.tick(now)
    for rank in ranks[:3000]:     # fills what the last configuration hints at
        read(rank, now)
    return strategy, ranks, now


def test_bench_agar_read_indexed(benchmark, settings):
    """20,000 indexed reads of one warm Agar strategy, no scheduler around them.

    The measured body replays a fixed rank stream at one simulated instant
    against the warm strategy of :func:`_warm_agar_reads`: most reads are
    hinted and hit the cache.
    """
    strategy, ranks, now = _warm_agar_reads(settings)
    read = strategy.read_indexed

    def replay():
        hits = 0
        for rank in ranks:
            hits += read(rank, now).chunks_from_cache > 0
        return hits

    hits = benchmark(replay)
    per_read_us = benchmark.stats.stats.mean / len(ranks) * 1e6
    benchmark.extra_info["us_per_read"] = round(per_read_us, 3)
    benchmark.extra_info["hit_share"] = round(hits / len(ranks), 4)
    emit(
        "agar read_indexed micro-guard (warm, no scheduler)",
        f"{len(ranks)} reads/round, {per_read_us:.2f} us per read, "
        f"{hits / len(ranks):.1%} served at least one chunk from the cache",
    )
    stats = strategy.cache.stats
    assert hits > len(ranks) // 2
    assert stats.chunk_hits > 0 and stats.evictions == 0
    assert strategy.node.request_monitor.requests_seen >= len(ranks)


def test_bench_resilient_read_indexed(benchmark, settings):
    """20,000 resilient indexed reads of one warm Agar strategy under an outage.

    ``test_bench_agar_read_indexed``'s shape with the resilience block of the
    end-to-end ``engine_faulted`` workload and ``sao_paulo`` down from the
    second warm-up period on: every read is a degraded re-plan composed per
    chunk with timeouts, redraws and at most one hedge, and feeds the
    per-link deadline trackers.
    """
    strategy, ranks, now = _warm_agar_reads(
        settings, fault_from_period=1,
        client_config=ClientConfig(resilience=ResilienceConfig(
            retry_budget=1, timeout_factor=1.1, hedge=True, hedge_quantile=0.7,
            hedge_min_samples=8, emergency_reconfiguration=True)))
    read = strategy.read_indexed

    def replay():
        retries = hedged = degraded = 0
        for rank in ranks:
            result = read(rank, now)
            retries += result.retries
            hedged += result.hedged
            degraded += result.degraded
        return retries, hedged, degraded

    retries, hedged, degraded = benchmark(replay)
    per_read_us = benchmark.stats.stats.mean / len(ranks) * 1e6
    benchmark.extra_info["us_per_read"] = round(per_read_us, 3)
    benchmark.extra_info["retries_per_read"] = round(retries / len(ranks), 4)
    benchmark.extra_info["hedged_share"] = round(hedged / len(ranks), 4)
    emit(
        "resilient agar read_indexed micro-guard (warm, outage installed, no scheduler)",
        f"{len(ranks)} reads/round, {per_read_us:.2f} us per read, "
        f"{retries} retries, {hedged} hedged, {degraded} degraded in the last round",
    )
    assert retries > 0 and hedged > 0 and degraded > 0
    assert strategy.cache.stats.chunk_hits > 0
