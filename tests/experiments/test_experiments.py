"""Tests for the experiment drivers (small-scale runs of every figure)."""

from dataclasses import replace

import pytest

from repro.experiments.common import ExperimentSettings
from repro.experiments.fig2_motivating import nonlinearity_check, render_fig2, run_fig2
from repro.experiments.fig6_policies import (agar_advantage, render_fig6, render_fig7,
                                             run_policy_comparison)
from repro.experiments.fig8_sweeps import agar_lead_by_group, render_sweep, run_fig8a, run_fig8b
from repro.experiments.fig9_popularity import render_fig9, run_fig9
from repro.experiments.fig10_cache_contents import diversity_check, render_fig10, run_fig10
from repro.experiments.microbench import run_microbench
from repro.experiments.table1_latency import render_table1, run_table1, run_table1_calibrated
from repro.geo.topology import TABLE1_FRANKFURT_LATENCIES

TINY = ExperimentSettings(runs=1, request_count=80, object_count=40, seed=7)
MEGABYTE = 1024 * 1024


class TestSettings:
    def test_presets(self):
        assert ExperimentSettings.paper().runs == 5
        assert ExperimentSettings.paper().request_count == 1000
        assert ExperimentSettings.quick().request_count < 1000

    def test_workload_builders(self):
        zipf = TINY.workload(skew=0.9)
        assert zipf.skew == pytest.approx(0.9)
        uniform = TINY.workload(skew=None)
        assert uniform.distribution == "uniform"


class TestTable1:
    def test_paper_values_reproduced(self):
        rows = run_table1()
        by_region = {row.region: row for row in rows}
        for region, expected in TABLE1_FRANKFURT_LATENCIES.items():
            assert by_region[region].measured_ms == pytest.approx(expected, rel=1e-6)
            assert by_region[region].paper_ms == expected
        text = render_table1(rows).render()
        assert "frankfurt" in text

    def test_calibrated_topology_preserves_ordering(self):
        rows = run_table1_calibrated()
        # Rows come back sorted by measured latency; Frankfurt must be first.
        assert rows[0].region == "frankfurt"
        assert rows[-1].region == "sydney"


class TestFig2:
    @pytest.fixture(scope="class")
    def points(self):
        return run_fig2(TINY, regions=("frankfurt",), chunk_counts=(0, 3, 7, 9))

    def test_latency_decreases_with_cached_chunks(self, points):
        series = {point.cached_chunks: point.mean_latency_ms for point in points}
        assert series[9] < series[0]
        assert series[7] < series[3]

    def test_nonlinearity(self, points):
        check = nonlinearity_check(points, "frankfurt")
        assert check["total_gain_ms"] > 0
        # The gain is not spread linearly over the sweep.
        assert abs(check["first_half_share"] - 0.5) > 0.1

    def test_render(self, points):
        text = render_fig2(points).render()
        assert "frankfurt" in text


class TestFig6And7:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_policy_comparison(
            TINY, regions=("frankfurt",), strategies=("agar", "lfu-7", "lru-1", "backend"),
            cache_capacity_bytes=5 * MEGABYTE,
        )

    def test_backend_is_slowest(self, rows):
        latencies = {row.strategy: row.mean_latency_ms for row in rows}
        assert latencies["backend"] == max(latencies.values())

    def test_agar_beats_lru1(self, rows):
        latencies = {row.strategy: row.mean_latency_ms for row in rows}
        assert latencies["agar"] < latencies["lru-1"]

    def test_advantage_summary(self, rows):
        summary = agar_advantage(rows, "frankfurt")
        assert summary["worst_other"] in ("lru-1", "lfu-7")
        assert summary["vs_worst_pct"] > 0

    def test_renders(self, rows):
        assert "agar" in render_fig6(rows).render()
        fig7 = render_fig7(rows).render()
        assert "backend" not in fig7
        assert "lfu-7" in fig7

    @pytest.mark.parametrize("seed", [6, 8, 10])
    def test_agar_holds_where_the_probe_ranks_regions_otherwise(self, seed):
        """At these seeds Sydney's start-up probe ranks Frankfurt above
        Dublin, the reverse of the client's expected latencies, so Agar pins
        Dublin chunks that the client's k nearest leave out.  A read takes
        every hinted chunk, so those pins still become hits: Agar keeps the
        ≈ 41–47 % lead over the backend it has at every other seed."""
        settings = replace(ExperimentSettings.quick(), seed=seed)
        rows = {row.strategy: row for row in run_policy_comparison(
            settings, regions=("sydney",), strategies=("agar", "backend"))}
        assert rows["agar"].mean_latency_ms <= 0.75 * rows["backend"].mean_latency_ms
        assert rows["agar"].full_hit_ratio > 0


class TestFig8:
    def test_fig8a_groups(self):
        points = run_fig8a(TINY, cache_sizes_mb=(5, 20), strategies=("agar", "lfu-9"))
        groups = {point.group for point in points}
        assert groups == {"0MB", "5MB", "20MB"}
        leads = agar_lead_by_group(points)
        assert set(leads) == {"5MB", "20MB"}
        assert "Figure" in render_sweep(points, "Figure 8a").render()

    def test_fig8b_uniform_vs_skewed(self):
        points = run_fig8b(TINY, skews=(1.1,), strategies=("agar", "lfu-9"),
                           include_backend_bar=False)
        groups = {point.group for point in points}
        assert groups == {"uniform", "zipf-1.1"}
        by_group = {}
        for point in points:
            by_group.setdefault(point.group, {})[point.strategy] = point.mean_latency_ms
        # Caching helps much more under the skewed workload than under uniform.
        uniform_gain = 1 - min(by_group["uniform"].values()) / max(by_group["uniform"].values())
        skewed_agar = by_group["zipf-1.1"]["agar"]
        assert skewed_agar < by_group["uniform"]["agar"]
        assert uniform_gain < 0.35


class TestFig9:
    def test_cdf_series_and_example(self):
        # The paper's example reads the CDF over its 300-object population.
        settings = ExperimentSettings(runs=1, request_count=300, object_count=300, seed=7)
        series = run_fig9(settings, skews=(0.5, 1.1), include_empirical=True)
        assert len(series) == 2
        skew11 = next(one for one in series if one.skew == 1.1)
        # Paper's reading example: the 5 most popular objects ≈ 40 % of requests.
        assert 0.30 <= skew11.analytic.value_at(5) <= 0.55
        assert skew11.empirical is not None
        assert abs(skew11.empirical.value_at(5) - skew11.analytic.value_at(5)) < 0.15
        assert "zipf-1.1" in render_fig9(series).render()

    def test_higher_skew_dominates(self):
        series = run_fig9(TINY, skews=(0.5, 1.4), include_empirical=False)
        low, high = series[0].analytic, series[1].analytic
        assert high.value_at(10) > low.value_at(10)


class TestFig10:
    def test_snapshots(self):
        snapshots = run_fig10(TINY, scenarios=(("frankfurt", 5 * MEGABYTE),))
        assert len(snapshots) == 1
        snapshot = snapshots[0]
        assert snapshot.cached_chunks > 0
        assert sum(snapshot.space_share.values()) == pytest.approx(1.0)
        check = diversity_check(snapshot)
        assert check["distinct_buckets"] >= 1
        assert "frankfurt 5MB" in render_fig10(snapshots).render()


class TestMicrobench:
    def test_timings_positive_and_reasonable(self):
        result = run_microbench(TINY, cache_capacity_bytes=5 * MEGABYTE)
        assert result.request_processing_ms >= 0
        assert result.request_processing_ms < 5.0
        assert result.reconfiguration_ms > 0
        assert result.candidate_keys > 0
