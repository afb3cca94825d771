"""Tests for the simulation clock and the run driver."""

import pytest

from repro.client.strategies import ClientConfig
from repro.sim.clock import SimulationClock
from repro.sim.simulation import Simulation, SimulationConfig, aggregate_results, run_comparison
from repro.workload.workload import zipfian_workload

MEGABYTE = 1024 * 1024


def small_workload(requests: int = 60, objects: int = 15):
    return zipfian_workload(1.1, request_count=requests, object_count=objects, seed=11)


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
    def make_config(self, strategy: str = "agar", **kwargs) -> SimulationConfig:
        defaults = dict(
            workload=small_workload(),
            client_region="frankfurt",
            strategy=strategy,
            cache_capacity_bytes=5 * MEGABYTE,
        )
        defaults.update(kwargs)
        return SimulationConfig(**defaults)

    def test_run_produces_stats(self):
        result = Simulation(self.make_config("lfu-7")).run(seed=1)
        assert result.stats.count == 60
        assert result.mean_latency_ms > 0
        assert result.duration_s > 0
        assert result.cache_snapshot is not None

    def test_backend_never_hits(self):
        result = Simulation(self.make_config("backend")).run(seed=1)
        assert result.hit_ratio == 0.0
        assert result.cache_snapshot is None

    def test_runs_are_reproducible(self):
        first = Simulation(self.make_config("lru-5")).run(seed=3)
        second = Simulation(self.make_config("lru-5")).run(seed=3)
        assert first.mean_latency_ms == pytest.approx(second.mean_latency_ms)
        assert first.hit_ratio == pytest.approx(second.hit_ratio)

    def test_different_seeds_differ(self):
        first = Simulation(self.make_config("lru-5")).run(seed=3)
        second = Simulation(self.make_config("lru-5")).run(seed=4)
        assert first.mean_latency_ms != pytest.approx(second.mean_latency_ms, rel=1e-6)

    def test_warmup_requests_excluded(self):
        config = self.make_config("lfu-9", warmup_requests=20)
        result = Simulation(config).run(seed=1)
        assert result.stats.count == 40

    def test_keep_results(self):
        simulation = Simulation(self.make_config("backend"), keep_results=True)
        result = simulation.run(seed=1)
        assert len(result.results) == 60
        assert result.results[0].started_at_s == 0.0

    def test_invalid_region(self):
        with pytest.raises(KeyError):
            Simulation(self.make_config("backend", client_region="mars"))

    def test_client_config_affects_latency(self):
        cheap = Simulation(self.make_config("backend", client=ClientConfig(overhead_ms=0.0))).run(seed=1)
        costly = Simulation(self.make_config("backend", client=ClientConfig(overhead_ms=500.0))).run(seed=1)
        assert costly.mean_latency_ms == pytest.approx(cheap.mean_latency_ms + 500.0, rel=0.01)


class TestRunMany:
    def test_warm_runs_improve_over_cold_first_run(self):
        config = SimulationConfig(
            workload=small_workload(requests=80, objects=10),
            client_region="frankfurt",
            strategy="lfu-9",
            cache_capacity_bytes=10 * MEGABYTE,
        )
        aggregate = Simulation(config).run_many(runs=3)
        assert aggregate.runs == 3
        assert len(aggregate.per_run_latency_ms) == 3
        # Later (warm) runs should not be slower than the cold first run.
        assert aggregate.per_run_latency_ms[-1] <= aggregate.per_run_latency_ms[0]

    def test_flush_between_runs_keeps_runs_cold(self):
        config = SimulationConfig(
            workload=small_workload(requests=80, objects=10),
            client_region="frankfurt",
            strategy="lfu-9",
            cache_capacity_bytes=10 * MEGABYTE,
        )
        cold = Simulation(config).run_many(runs=2, flush_between_runs=True)
        warm = Simulation(config).run_many(runs=2, flush_between_runs=False)
        assert warm.per_run_latency_ms[1] <= cold.per_run_latency_ms[1]

    def test_invalid_runs(self):
        config = SimulationConfig(workload=small_workload(), strategy="backend")
        with pytest.raises(ValueError):
            Simulation(config).run_many(runs=0)

    def test_aggregate_results_validation(self):
        with pytest.raises(ValueError):
            aggregate_results([])


class TestRunComparison:
    def test_all_strategies_present(self):
        comparison = run_comparison(
            workload=small_workload(requests=50, objects=10),
            strategies=["backend", "lru-5", "agar"],
            client_region="frankfurt",
            cache_capacity_bytes=5 * MEGABYTE,
            runs=1,
        )
        assert set(comparison) == {"backend", "lru-5", "agar"}
        assert comparison["backend"].mean_latency_ms > comparison["lru-5"].mean_latency_ms * 0.5
        for aggregate in comparison.values():
            assert aggregate.runs == 1

    def test_warmup_requests_exposed(self):
        """ISSUE 2 satellite: the comparison API must expose warm-up exclusion."""
        kwargs = dict(
            workload=small_workload(requests=50, objects=10),
            strategies=["lru-5"],
            client_region="frankfurt",
            cache_capacity_bytes=5 * MEGABYTE,
            runs=2,
        )
        full = run_comparison(**kwargs)
        warmed = run_comparison(**kwargs, warmup_requests=20)
        # 20 of 50 requests per run are excluded from the statistics, and the
        # excluded cold misses can only improve the reported latency.
        assert warmed["lru-5"].mean_latency_ms <= full["lru-5"].mean_latency_ms

    def test_flush_between_runs_exposed(self):
        """ISSUE 2 satellite: warm-cache repetition through the comparison API."""
        kwargs = dict(
            workload=small_workload(requests=80, objects=10),
            strategies=["lfu-9"],
            client_region="frankfurt",
            cache_capacity_bytes=10 * MEGABYTE,
            runs=2,
        )
        warm = run_comparison(**kwargs, flush_between_runs=False)
        cold = run_comparison(**kwargs, flush_between_runs=True)
        assert warm["lfu-9"].per_run_latency_ms[1] <= cold["lfu-9"].per_run_latency_ms[1]
        # Cold repetitions restart the deployment, so both runs look alike.
        assert cold["lfu-9"].runs == warm["lfu-9"].runs == 2
