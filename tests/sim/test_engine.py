"""Tests for the discrete-event engine: legacy equivalence, multi-client and
multi-region behaviour, arrival processes, timers and collaboration."""

import numpy as np
import pytest

from repro.sim.engine import (
    CLIENT_SEED_STRIDE,
    EngineConfig,
    EventEngine,
    RegionSpec,
)
from repro.workload.workload import ArrivalSpec, poisson_arrivals, zipfian_workload

from reference.closed_loop import run_closed_loop

MEGABYTE = 1024 * 1024


def small_workload(requests: int = 60, objects: int = 15, seed: int = 11):
    return zipfian_workload(1.1, request_count=requests, object_count=objects, seed=seed)


def single_region_config(strategy: str = "agar", **kwargs) -> EngineConfig:
    defaults = dict(
        workload=small_workload(),
        regions=(RegionSpec(region="frankfurt", clients=1, strategy=strategy),),
        cache_capacity_bytes=5 * MEGABYTE,
    )
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def multi_region_config(strategy: str = "agar", clients: int = 4, **kwargs) -> EngineConfig:
    defaults = dict(
        workload=small_workload(),
        regions=(
            RegionSpec(region="frankfurt", clients=clients, strategy=strategy),
            RegionSpec(region="sydney", clients=clients, strategy=strategy),
        ),
        cache_capacity_bytes=5 * MEGABYTE,
    )
    defaults.update(kwargs)
    return EngineConfig(**defaults)


class TestConfigValidation:
    def test_no_regions(self):
        with pytest.raises(ValueError):
            EngineConfig(workload=small_workload(), regions=())

    def test_duplicate_regions(self):
        with pytest.raises(ValueError):
            EngineConfig(
                workload=small_workload(),
                regions=(RegionSpec("frankfurt"), RegionSpec("frankfurt")),
            )

    def test_zero_clients(self):
        with pytest.raises(ValueError):
            RegionSpec("frankfurt", clients=0)

    def test_collaboration_requires_agar(self):
        with pytest.raises(ValueError):
            EngineConfig(
                workload=small_workload(),
                regions=(RegionSpec("frankfurt", strategy="lru-5"),
                         RegionSpec("sydney", strategy="agar")),
                collaboration=True,
            )

    def test_unknown_region(self):
        with pytest.raises(KeyError):
            EventEngine(single_region_config(), topology=None).topology  # noqa: B018
            EventEngine(EngineConfig(
                workload=small_workload(), regions=(RegionSpec("mars"),)
            ))

    def test_reconfiguration_mode_resolution(self):
        assert not single_region_config().uses_timer_reconfiguration
        assert multi_region_config().uses_timer_reconfiguration
        assert single_region_config(
            arrival=poisson_arrivals(2.0)
        ).uses_timer_reconfiguration
        assert single_region_config(
            timer_reconfiguration=True
        ).uses_timer_reconfiguration
        assert multi_region_config(
            collaboration=True, timer_reconfiguration=False
        ).uses_timer_reconfiguration  # collaboration forces timers


class TestLegacyEquivalence:
    """The 1-client closed-loop engine path must be bit-identical to the
    pre-engine closed loop (ISSUE 2 acceptance criterion), which lives on as
    ``tests/reference/closed_loop.py``."""

    @pytest.mark.parametrize("strategy", ["backend", "lru-5", "lfu-5", "agar"])
    def test_bit_identical_stats(self, strategy):
        config = single_region_config(
            strategy, workload=small_workload(requests=80, objects=15))
        engine_result = EventEngine(config).run(seed=3).regions["frankfurt"]
        legacy_result = run_closed_loop(config, seed=3)

        assert np.array_equal(
            engine_result.stats.latencies_array(), legacy_result.stats.latencies_array()
        )
        for attribute in ("full_hits", "partial_hits", "misses",
                          "cache_chunks_total", "backend_chunks_total"):
            assert getattr(engine_result.stats, attribute) == \
                getattr(legacy_result.stats, attribute)
        assert engine_result.duration_s == legacy_result.duration_s

    def test_cache_snapshots_match(self):
        config = single_region_config("agar")
        engine_snapshot = EventEngine(config).run(seed=2).regions["frankfurt"].cache_snapshot
        legacy_snapshot = run_closed_loop(config, seed=2).cache_snapshot
        assert engine_snapshot.chunks_per_key == legacy_snapshot.chunks_per_key


class TestMultiClient:
    def test_clients_share_the_region_cache(self):
        """More clients per region warm the shared cache faster."""
        one = EventEngine(multi_region_config(strategy="lfu-5", clients=1)).run(seed=1)
        many = EventEngine(multi_region_config(strategy="lfu-5", clients=6)).run(seed=1)
        assert many.total_requests == 6 * one.total_requests
        assert many.regions["frankfurt"].hit_ratio >= one.regions["frankfurt"].hit_ratio

    def test_distinct_streams_per_client(self):
        config = multi_region_config(strategy="backend", clients=2)
        engine = EventEngine(config, keep_results=True)
        result = engine.run(seed=1)
        frankfurt = result.regions["frankfurt"]
        keys_first = [r.key for r in frankfurt.results[0::2]]
        keys_second = [r.key for r in frankfurt.results[1::2]]
        assert keys_first != keys_second  # different derived seeds

    def test_deterministic_across_runs(self):
        config = multi_region_config(clients=3, arrival=poisson_arrivals(4.0),
                                     collaboration=True)
        first = EventEngine(config).run(seed=2)
        second = EventEngine(config).run(seed=2)
        for region in first.regions:
            assert np.array_equal(
                first.regions[region].stats.latencies_array(),
                second.regions[region].stats.latencies_array(),
            )
        assert first.duration_s == second.duration_s

    def test_seed_stride_client_zero_matches_legacy_stream(self):
        assert CLIENT_SEED_STRIDE > 0
        config = single_region_config(strategy="backend")
        engine = EventEngine(config, keep_results=True)
        result = engine.run(seed=7)
        from repro.workload.workload import generate_requests
        expected = [request.key for request in generate_requests(config.workload, seed=7)]
        observed = [r.key for r in result.regions["frankfurt"].results]
        assert observed == expected


class TestArrivalProcesses:
    def test_poisson_is_open_loop(self):
        """Open-loop arrivals do not wait for completions: the run finishes in
        roughly request_count / rate seconds, regardless of latency."""
        config = single_region_config(
            strategy="backend",
            workload=small_workload(requests=100),
            arrival=poisson_arrivals(10.0),
        )
        result = EventEngine(config).run(seed=1)
        expected_span = 100 / 10.0
        assert result.duration_s < expected_span * 2.5
        closed = EventEngine(single_region_config(
            strategy="backend", workload=small_workload(requests=100),
        )).run(seed=1)
        # Closed loop takes one latency per request (~1s each), far longer.
        assert closed.duration_s > result.duration_s

    def test_throughput_tracks_offered_load(self):
        config = multi_region_config(strategy="backend", clients=2,
                                     arrival=poisson_arrivals(3.0))
        result = EventEngine(config).run(seed=1)
        offered = 2 * 2 * 3.0  # regions x clients x rate
        assert result.throughput_rps == pytest.approx(offered, rel=0.35)

    def test_per_region_metrics_populated(self):
        result = EventEngine(multi_region_config(clients=2)).run(seed=1)
        for region_result in result.regions.values():
            assert region_result.stats.count == 2 * 60
            assert region_result.mean_latency_ms > 0
            assert region_result.p99_latency_ms >= region_result.mean_latency_ms
            assert region_result.throughput_rps > 0
        overall = result.overall_stats()
        assert overall.count == result.total_requests == 2 * 2 * 60
        assert overall.p50_latency_ms <= overall.p99_latency_ms


class TestTimersAndCollaboration:
    def test_timer_reconfiguration_fires(self):
        config = multi_region_config(
            clients=4,
            workload=small_workload(requests=200),
            timer_reconfiguration=True,
        )
        engine = EventEngine(config)
        deployment = engine.build_deployment()
        engine.topology.latency.reseed(config.topology_seed + 1)
        engine.execute(deployment, seed=1)
        for strategy in deployment.strategies:
            assert strategy.node.reconfiguration_history()

    def test_collaboration_coordinator_runs(self):
        config = multi_region_config(
            clients=4,
            workload=small_workload(requests=200),
            collaboration=True,
        )
        engine = EventEngine(config)
        engine.topology.latency.reseed(config.topology_seed + 1)
        deployment = engine.build_deployment()
        assert deployment.coordinator is not None
        engine.execute(deployment, seed=1)
        # The coordinated round installed configurations and broadcast contents.
        assert deployment.coordinator.announcements()
        assert any(strategy.node.current_configuration.weight > 0
                   for strategy in deployment.strategies)

    def test_collaboration_enables_neighbor_reads(self):
        """After the first §VI round, regions read neighbour-pinned chunks at
        neighbor_read_ms instead of the backend — the read-path half of the
        collaboration (counted as chunks_from_neighbors, not as hits)."""
        config = multi_region_config(
            clients=4,
            workload=small_workload(requests=200),
            collaboration=True,
            neighbor_read_ms=10.0,
        )
        engine = EventEngine(config)
        engine.topology.latency.reseed(config.topology_seed + 1)
        deployment = engine.build_deployment()
        result = engine.execute(deployment, seed=1)
        total_neighbor = sum(region.stats.neighbor_chunks_total
                             for region in result.regions.values())
        assert total_neighbor > 0
        for strategy in deployment.strategies:
            assert strategy._neighbor_pinned is not None

    def test_neighbor_profiles_flat_override_keeps_topology_sigma(self):
        """A float neighbor_read_ms pins the expected latency but the jitter
        sigma still comes from the per-pair topology link (satellite: the
        neighbour path is no longer draw-free on jittered topologies)."""
        config = multi_region_config(
            clients=2, workload=small_workload(requests=50),
            collaboration=True, neighbor_read_ms=25.0,
        )
        engine = EventEngine(config)
        profiles = engine._neighbor_profiles()
        for region, (expected_ms, sigma) in profiles.items():
            assert expected_ms == 25.0
            partners = [other for other in profiles if other != region]
            expected_sigma = min(
                (engine.topology.neighbor_link(region, other).expected_ms, other)
                for other in partners
            )[1]
            assert sigma == engine.topology.neighbor_link(
                region, expected_sigma).sigma
            assert sigma > 0

    def test_neighbor_profiles_derived_from_topology(self):
        """neighbor_read_ms=None derives each region's expected neighbour
        latency from its nearest collaboration partner's link."""
        config = multi_region_config(
            clients=2, workload=small_workload(requests=50),
            collaboration=True, neighbor_read_ms=None,
        )
        engine = EventEngine(config)
        profiles = engine._neighbor_profiles()
        for region, (expected_ms, _sigma) in profiles.items():
            partners = [other for other in profiles if other != region]
            nearest = min(
                engine.topology.neighbor_link(region, other).expected_ms
                for other in partners
            )
            assert expected_ms == nearest
        # The coordinator discounts with the per-region derived estimate.
        deployment = engine.build_deployment()
        for region, (expected_ms, _sigma) in profiles.items():
            assert deployment.coordinator._discount_for(region) == expected_ms

    def test_negative_neighbor_read_ms_rejected(self):
        with pytest.raises(ValueError):
            multi_region_config(neighbor_read_ms=-1.0)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf")])
    def test_non_finite_neighbor_read_ms_rejected(self, latency):
        with pytest.raises(ValueError, match="neighbor_read_ms"):
            multi_region_config(neighbor_read_ms=latency)

    @pytest.mark.parametrize("period", [0.0, -5.0, float("nan"), float("inf")])
    def test_collaboration_period_must_be_finite_and_positive(self, period):
        """A period at or below zero re-arms its timer at once, so the run
        never leaves its timer loop; a non-finite one never fires."""
        with pytest.raises(ValueError, match="collaboration_period_s"):
            multi_region_config(collaboration=True, collaboration_period_s=period)

    def test_warm_deployment_persists_across_executes(self):
        config = multi_region_config(strategy="lfu-5", clients=2)
        engine = EventEngine(config)
        engine.topology.latency.reseed(config.topology_seed + 1)
        deployment = engine.build_deployment()
        cold = engine.execute(deployment, seed=1)
        warm = engine.execute(deployment, seed=2)
        assert warm.regions["frankfurt"].hit_ratio >= cold.regions["frankfurt"].hit_ratio
