"""Tests for the simulation clock and the experiment driver: single runs of
the paper's 1 × 1 deployment, ``run_many`` and ``run_comparison``."""

from dataclasses import replace

import numpy as np
import pytest

from repro.client.strategies import ClientConfig
from repro.sim.clock import SimulationClock
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
from repro.sim.simulation import DEPLOYMENT_LABEL, run_comparison, run_many
from repro.workload.workload import zipfian_workload

MEGABYTE = 1024 * 1024


def small_workload(requests: int = 60, objects: int = 15):
    return zipfian_workload(1.1, request_count=requests, object_count=objects, seed=11)


def single_client_config(strategy: str = "agar", region: str = "frankfurt",
                         **kwargs) -> EngineConfig:
    """The paper's setting: one closed-loop client in one region."""
    defaults = dict(
        workload=small_workload(),
        regions=(RegionSpec(region, strategy=strategy),),
        cache_capacity_bytes=5 * MEGABYTE,
    )
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def run_once(config: EngineConfig, seed: int, keep_results: bool = False):
    """One cold run's result for the configuration's only region."""
    (result,) = EventEngine(config, keep_results=keep_results).run(seed=seed).regions.values()
    return result


class TestClock:
    def test_advance(self):
        clock = SimulationClock()
        assert clock.now() == 0.0
        clock.advance_seconds(2.0)
        clock.advance_ms(500.0)
        assert clock.now() == pytest.approx(2.5)
        assert clock() == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationClock(start_s=-1.0)
        with pytest.raises(ValueError):
            SimulationClock().advance_seconds(-0.1)


class TestSimulation:
    """Single cold runs of the paper's setting (``EventEngine.run``)."""

    def test_run_produces_stats(self):
        result = run_once(single_client_config("lfu-7"), seed=1)
        assert result.stats.count == 60
        assert result.mean_latency_ms > 0
        assert result.duration_s > 0
        assert result.cache_snapshot is not None

    def test_backend_never_hits(self):
        result = run_once(single_client_config("backend"), seed=1)
        assert result.hit_ratio == 0.0
        assert result.cache_snapshot is None

    def test_runs_are_reproducible(self):
        first = run_once(single_client_config("lru-5"), seed=3)
        second = run_once(single_client_config("lru-5"), seed=3)
        assert first.mean_latency_ms == pytest.approx(second.mean_latency_ms)
        assert first.hit_ratio == pytest.approx(second.hit_ratio)

    def test_different_seeds_differ(self):
        first = run_once(single_client_config("lru-5"), seed=3)
        second = run_once(single_client_config("lru-5"), seed=4)
        assert first.mean_latency_ms != pytest.approx(second.mean_latency_ms, rel=1e-6)

    def test_keep_results(self):
        result = run_once(single_client_config("backend"), seed=1, keep_results=True)
        assert len(result.results) == 60
        assert result.results[0].started_at_s == 0.0

    def test_invalid_region(self):
        with pytest.raises(KeyError):
            EventEngine(single_client_config("backend", region="mars"))

    def test_client_config_affects_latency(self):
        cheap = run_once(single_client_config(
            "backend", client=ClientConfig(overhead_ms=0.0)), seed=1)
        costly = run_once(single_client_config(
            "backend", client=ClientConfig(overhead_ms=500.0)), seed=1)
        assert costly.mean_latency_ms == pytest.approx(cheap.mean_latency_ms + 500.0, rel=0.01)


def two_region_config(**kwargs) -> EngineConfig:
    return EngineConfig(
        workload=small_workload(requests=40, objects=12),
        regions=(RegionSpec("frankfurt", clients=2),
                 RegionSpec("sydney", clients=2, strategy="lfu-5")),
        cache_capacity_bytes=5 * MEGABYTE,
        **kwargs,
    )


class TestRunMany:
    def test_warm_runs_improve_over_cold_first_run(self):
        config = single_client_config(
            "lfu-9", workload=small_workload(requests=80, objects=10),
            cache_capacity_bytes=10 * MEGABYTE)
        aggregate = run_many(config, runs=3).regions["frankfurt"]
        assert aggregate.runs == 3
        assert len(aggregate.per_run_latency_ms) == 3
        # Later (warm) runs should not be slower than the cold first run.
        assert aggregate.per_run_latency_ms[-1] <= aggregate.per_run_latency_ms[0]

    def test_invalid_runs(self):
        with pytest.raises(ValueError):
            run_many(single_client_config("backend"), runs=0)

    def test_invalid_region(self):
        with pytest.raises(KeyError):
            run_many(single_client_config("backend", region="mars"), runs=1)

    def test_first_run_is_the_cold_single_run(self):
        """Run 0 of a repetition is ``EventEngine.run`` with the base seed."""
        config = single_client_config("agar")
        runs = run_many(config, runs=2, base_seed=7)
        cold = run_once(config, seed=7)
        assert np.array_equal(runs.results[0].regions["frankfurt"].stats.latencies_array(),
                              cold.stats.latencies_array())
        assert runs.regions["frankfurt"].per_run_latency_ms[0] == cold.mean_latency_ms

    def test_aggregates_average_the_runs(self):
        runs = run_many(two_region_config(), runs=3)
        assert list(runs.regions) == ["frankfurt", "sydney"]
        assert len(runs.results) == 3
        for region, aggregate in runs.regions.items():
            per_run = [result.regions[region] for result in runs.results]
            assert aggregate.strategy == per_run[0].strategy
            assert aggregate.clients == 2
            assert aggregate.per_run_latency_ms == [r.mean_latency_ms for r in per_run]
            assert aggregate.mean_latency_ms == sum(aggregate.per_run_latency_ms) / 3
            assert aggregate.hit_ratio == sum(r.hit_ratio for r in per_run) / 3
        overall = runs.deployment_aggregate
        assert overall.region == DEPLOYMENT_LABEL
        assert overall.strategy == "agar+lfu-5"
        assert overall.clients == 4
        assert overall.per_run_latency_ms == [
            result.aggregate().mean_latency_ms for result in runs.results]

    def test_last_run_carries_the_final_cache_snapshot(self):
        runs = run_many(single_client_config("agar"), runs=2)
        snapshot = runs.results[-1].regions["frankfurt"].cache_snapshot
        assert snapshot is not None
        assert snapshot.used_bytes <= 5 * MEGABYTE
        # The deployment handed back is the one the runs warmed.
        assert runs.deployment.strategies[0].cache_snapshot().chunks_per_key == \
            snapshot.chunks_per_key

    def test_sharded_is_execute_sharded_per_seed(self):
        config = two_region_config()
        runs = run_many(config, runs=2, base_seed=5, sharded=True)

        engine = EventEngine(config)
        engine.topology.latency.reseed(config.topology_seed + 5)
        deployment = engine.build_deployment()
        for index, result in enumerate(runs.results):
            expected = engine.execute_sharded(deployment, 5 + index)
            assert result.duration_s == expected.duration_s
            for region in ("frankfurt", "sydney"):
                assert np.array_equal(
                    result.regions[region].stats.latencies_array(),
                    expected.regions[region].stats.latencies_array())

    def test_sharded_differs_from_in_process(self):
        """Shards draw jitter from their own streams, so the flag is not a no-op."""
        config = two_region_config()
        assert run_many(config, runs=1, sharded=True).regions["frankfurt"].mean_latency_ms != \
            run_many(config, runs=1).regions["frankfurt"].mean_latency_ms

    @pytest.mark.parametrize("sharded", [False, True])
    def test_keep_results_retains_reads_on_every_run(self, sharded):
        kept = run_many(two_region_config(), runs=2, sharded=sharded, keep_results=True)
        for result in kept.results:
            for region_result in result.regions.values():
                assert len(region_result.results) == region_result.stats.count == 80
        dropped = run_many(two_region_config(), runs=2, sharded=sharded)
        assert all(not region_result.results
                   for result in dropped.results
                   for region_result in result.regions.values())


def one_region_each(strategies, region="frankfurt"):
    """The paper's comparison: each strategy alone in one region, one client."""
    return {strategy: (RegionSpec(region, strategy=strategy),)
            for strategy in strategies}


class TestRunComparison:
    def test_all_strategies_present(self):
        comparison = run_comparison(
            workload=small_workload(requests=50, objects=10),
            deployments=one_region_each(["backend", "lru-5", "agar"]),
            cache_capacity_bytes=5 * MEGABYTE,
            runs=1,
        )
        assert set(comparison) == {"backend", "lru-5", "agar"}
        latency = {label: runs.regions["frankfurt"].mean_latency_ms
                   for label, runs in comparison.items()}
        assert latency["backend"] > latency["lru-5"] * 0.5
        for runs in comparison.values():
            assert runs.regions["frankfurt"].runs == 1

    def test_each_label_is_its_own_run_many(self):
        workload = small_workload(requests=50, objects=10)
        comparison = run_comparison(
            workload=workload,
            deployments=one_region_each(["lru-5", "agar"], region="sydney"),
            cache_capacity_bytes=5 * MEGABYTE,
            runs=2,
            topology_seed=4,
        )
        for strategy, runs in comparison.items():
            alone = run_many(
                single_client_config(strategy, region="sydney", workload=workload,
                                     topology_seed=4),
                runs=2)
            assert runs.regions["sydney"] == alone.regions["sydney"]

    def test_collaboration_applies_to_all_agar_deployments_only(self):
        comparison = run_comparison(
            workload=small_workload(requests=40, objects=10),
            deployments={
                "agar": (RegionSpec("frankfurt"), RegionSpec("dublin")),
                "mixed": (RegionSpec("frankfurt"), RegionSpec("dublin", strategy="lfu-5")),
            },
            cache_capacity_bytes=5 * MEGABYTE,
            runs=1,
            collaboration=True,
        )
        assert comparison["agar"].deployment.coordinator is not None
        assert comparison["mixed"].deployment.coordinator is None
