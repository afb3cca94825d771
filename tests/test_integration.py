"""End-to-end integration tests: the paper's qualitative claims at small scale.

These tests run the whole stack (store → strategies → simulation → analysis)
with a reduced workload and check the *shape* of the paper's results rather
than absolute numbers:

* caching beats the backend, and Agar is competitive with the best static
  policy while clearly beating badly chosen ones (Fig. 6);
* Agar's hit ratio exceeds that of the full-replica static policies (Fig. 7);
* the advantage of any caching policy collapses under a uniform workload
  (Fig. 8b);
* Agar's cache mixes several chunk counts instead of one fixed size (Fig. 10).
"""

import pytest

from repro.sim import EngineConfig, RegionSpec, run_comparison, run_many
from repro.workload import uniform_workload, zipfian_workload

MEGABYTE = 1024 * 1024


def compare_in_frankfurt(workload, strategies, runs, topology_seed):
    """The paper's comparison — each strategy alone, one client in Frankfurt —
    as ``{strategy: RegionAggregate}``."""
    comparison = run_comparison(
        workload=workload,
        deployments={strategy: (RegionSpec("frankfurt", strategy=strategy),)
                     for strategy in strategies},
        cache_capacity_bytes=5 * MEGABYTE,
        runs=runs,
        topology_seed=topology_seed,
    )
    return {strategy: runs.regions["frankfurt"] for strategy, runs in comparison.items()}


@pytest.fixture(scope="module")
def comparison():
    workload = zipfian_workload(1.1, request_count=400, object_count=100, seed=21)
    return compare_in_frankfurt(
        workload, ["agar", "lfu-7", "lfu-9", "lru-1", "lru-9", "backend"],
        runs=2, topology_seed=21)


class TestFig6Shape:
    def test_every_cache_policy_beats_backend(self, comparison):
        backend = comparison["backend"].mean_latency_ms
        for name, aggregate in comparison.items():
            if name != "backend":
                assert aggregate.mean_latency_ms < backend

    def test_agar_beats_poorly_chosen_static_policies(self, comparison):
        agar = comparison["agar"].mean_latency_ms
        assert agar < comparison["lru-1"].mean_latency_ms * 0.85
        assert agar < comparison["lru-9"].mean_latency_ms * 0.95

    def test_agar_competitive_with_best_static_policy(self, comparison):
        agar = comparison["agar"].mean_latency_ms
        best_static = min(
            aggregate.mean_latency_ms
            for name, aggregate in comparison.items()
            if name not in ("agar", "backend")
        )
        assert agar <= best_static * 1.05

    def test_hit_ratios_shape(self, comparison):
        assert comparison["backend"].hit_ratio == 0.0
        assert comparison["lru-1"].hit_ratio > comparison["lru-9"].hit_ratio
        assert comparison["agar"].hit_ratio >= comparison["lfu-9"].hit_ratio


class TestUniformWorkloadShape:
    def test_policy_choice_hardly_matters_without_skew(self):
        workload = uniform_workload(request_count=300, object_count=100, seed=5)
        comparison = compare_in_frankfurt(
            workload, ["agar", "lfu-9", "lru-5"], runs=1, topology_seed=5)
        latencies = [aggregate.mean_latency_ms for aggregate in comparison.values()]
        spread = (max(latencies) - min(latencies)) / max(latencies)
        assert spread < 0.15


class TestAgarCacheContents:
    def test_mixed_chunk_counts(self):
        workload = zipfian_workload(1.1, request_count=400, object_count=100, seed=3)
        config = EngineConfig(
            workload=workload,
            regions=(RegionSpec("frankfurt", strategy="agar"),),
            cache_capacity_bytes=10 * MEGABYTE,
            topology_seed=3,
        )
        snapshot = run_many(config, runs=2).results[-1].regions["frankfurt"].cache_snapshot
        histogram = snapshot.chunk_count_histogram()
        assert len(histogram) >= 2, f"expected a mix of chunk counts, got {histogram}"
        assert snapshot.used_bytes <= 10 * MEGABYTE

    def test_sydney_and_frankfurt_configured_differently(self):
        workload = zipfian_workload(1.1, request_count=400, object_count=100, seed=9)
        snapshots = {}
        for region in ("frankfurt", "sydney"):
            config = EngineConfig(
                workload=workload,
                regions=(RegionSpec(region, strategy="agar"),),
                cache_capacity_bytes=5 * MEGABYTE,
                topology_seed=9,
            )
            last_run = run_many(config, runs=2).results[-1]
            snapshots[region] = last_run.regions[region].cache_snapshot.chunk_count_histogram()
        # "For each scenario Agar chooses to manage its cache differently" (§V-D).
        assert snapshots["frankfurt"] != snapshots["sydney"]
