"""Tests for the CLI entry point and the ablation experiments."""

import io

import pytest

from repro.experiments.ablation import mean_gap, run_agar_variants, run_solver_quality
from repro.experiments.cli import main
from repro.experiments.common import ExperimentSettings


class TestSolverQualityAblation:
    def test_heuristic_better_than_greedy(self):
        rows = run_solver_quality(capacities=(18, 45), object_count=30)
        assert len(rows) == 2
        for row in rows:
            assert row.heuristic_gap_pct <= row.greedy_density_gap_pct + 1e-9
            assert 0 <= row.heuristic_gap_pct <= 15.0
        assert mean_gap(rows, "heuristic_gap_pct") <= mean_gap(rows, "greedy_density_gap_pct")

    def test_relax_never_hurts(self):
        rows = run_solver_quality(capacities=(27,), object_count=30)
        assert rows[0].heuristic_gap_pct <= rows[0].heuristic_no_relax_gap_pct + 1e-9


class TestAgarVariantsAblation:
    def test_variants_run(self):
        tiny = ExperimentSettings(runs=1, request_count=60, object_count=30, seed=3,
                                  cache_capacity_bytes=3 * 1024 * 1024)
        rows = run_agar_variants(tiny)
        labels = {row.variant for row in rows}
        assert "default (alpha=0.2, 30s)" in labels
        assert "paper LFU-7 (periodic)" in labels
        assert all(row.mean_latency_ms > 0 for row in rows)


class TestCli:
    def test_table1_command(self):
        out = io.StringIO()
        assert main(["table1"], out=out) == 0
        assert "Table I" in out.getvalue()

    def test_fig9_quick(self):
        out = io.StringIO()
        assert main(["fig9", "--quick"], out=out) == 0
        assert "zipf-1.1" in out.getvalue()

    def test_microbench_quick(self):
        out = io.StringIO()
        assert main(["microbench", "--quick"], out=out) == 0
        assert "reconfiguration" in out.getvalue()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"], out=io.StringIO())

    def test_invalid_engine_flags_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--clients-per-region", "0"], out=io.StringIO())
        with pytest.raises(SystemExit):
            main(["fig6", "--arrival-rate", "-1"], out=io.StringIO())


class TestEngineFlagsOnlyWhereHonoured:
    """A single named experiment that would ignore an engine flag rejects it
    (it used to print the one-client table and exit 0)."""

    @staticmethod
    def rejected(argv, capsys) -> str:
        with pytest.raises(SystemExit) as error:
            main([*argv, "--smoke"], out=io.StringIO())
        assert error.value.code == 2
        return capsys.readouterr().err

    def test_clients_per_region(self, capsys):
        message = self.rejected(["fig2", "--clients-per-region", "4"], capsys)
        assert "--clients-per-region does not apply to fig2" in message
        self.rejected(["fig_chaos", "--clients-per-region", "2"], capsys)
        self.rejected(["serve", "--clients-per-region", "2"], capsys)

    @pytest.mark.parametrize("flag", ["--collaboration", "--no-collaboration"])
    def test_collaboration(self, flag, capsys):
        message = self.rejected(["fig10", flag], capsys)
        assert "--collaboration/--no-collaboration does not apply to fig10" in message
        self.rejected(["table1", flag], capsys)

    def test_region(self, capsys):
        message = self.rejected(["fig10", "--region", "frankfurt:lru-5"], capsys)
        assert "--region does not apply to fig10" in message
        self.rejected(["serve", "--region", "frankfurt"], capsys)

    def test_regions(self, capsys):
        message = self.rejected(["fig9", "--regions", "frankfurt"], capsys)
        assert "--regions does not apply to fig9" in message
        assert "fig_chaos, serve" in message
        self.rejected(["microbench", "--regions", "frankfurt,sydney"], capsys)

    def test_arrival_rate(self, capsys):
        message = self.rejected(["fig2", "--arrival-rate", "3"], capsys)
        assert "--arrival-rate does not apply to fig2" in message
        self.rejected(["fig_chaos", "--arrival-rate", "3"], capsys)

    def test_the_reported_command(self, capsys):
        self.rejected(["fig2", "--clients-per-region", "4", "--collaboration",
                       "--arrival-rate", "3"], capsys)

    def test_flags_still_reach_the_experiments_that_take_them(self, monkeypatch):
        """``--regions`` / ``--arrival-rate`` stay valid for the wire
        experiments, every flag for the engine experiments and for ``all``."""
        from repro.experiments import cli as cli_module

        seen = []
        monkeypatch.setattr(
            cli_module, "_run_one",
            lambda name, settings, out, engine=None, extra=None:
                seen.append((name, engine, extra)))
        run = lambda argv: main([*argv, "--smoke"], out=io.StringIO())  # noqa: E731

        assert run(["serve", "--regions", "frankfurt,sydney", "--arrival-rate", "50"]) == 0
        assert seen[-1][2] == {"serve_regions": ("frankfurt", "sydney"),
                               "serve_rate_rps": 50.0}
        assert run(["fig_chaos", "--regions", "frankfurt,dublin"]) == 0
        assert seen[-1][2] == {"chaos_regions": ("frankfurt", "dublin")}
        assert run(["fig8b", "--clients-per-region", "2", "--arrival-rate", "3",
                    "--collaboration", "--region", "frankfurt::20MB"]) == 0
        assert seen[-1][1].clients_per_region == 2
        seen.clear()
        assert run(["all", "--clients-per-region", "2"]) == 0
        engines = {name: engine for name, engine, _ in seen}
        assert engines["fig2"] is None and engines["fig6"].clients_per_region == 2


class TestCliEngine:
    """The ISSUE 2 acceptance scenario: a deterministic multi-region run with
    Poisson arrivals and collaboration, reported per region via the CLI."""

    def test_multiregion_defaults(self, monkeypatch):
        from repro.experiments import cli as cli_module
        from repro.experiments.common import ExperimentSettings as Settings

        # Shrink the quick settings so the scaling sweep stays test-sized.
        tiny = Settings(runs=1, request_count=80, object_count=40, seed=3)
        monkeypatch.setattr(cli_module, "_settings", lambda args: tiny)

        out = io.StringIO()
        assert main(["multiregion", "--quick"], out=out) == 0
        text = out.getvalue()
        assert "Multi-region scaling" in text
        assert "poisson" in text
        assert "collaboration on" in text
        for region in ("frankfurt", "sydney"):
            assert region in text
        for column in ("mean (ms)", "p99 (ms)", "hit ratio (%)", "throughput (req/s)"):
            assert column in text

    def test_fig6_engine_flags(self, monkeypatch):
        from repro.experiments import cli as cli_module
        from repro.experiments.common import ExperimentSettings as Settings

        tiny = Settings(runs=1, request_count=60, object_count=30, seed=3)
        monkeypatch.setattr(cli_module, "_settings", lambda args: tiny)

        out = io.StringIO()
        assert main(
            ["fig6", "--quick", "--regions", "frankfurt,sydney",
             "--clients-per-region", "2", "--arrival-rate", "4",
             "--collaboration"],
            out=out,
        ) == 0
        text = out.getvalue()
        assert "Figure 6" in text
        assert "frankfurt" in text and "sydney" in text

    def test_multiregion_runs_are_deterministic(self):
        from repro.experiments.common import EngineOptions, ExperimentSettings as Settings
        from repro.experiments.multiregion import run_multiregion_scaling

        tiny = Settings(runs=1, request_count=60, object_count=30, seed=3)
        options = EngineOptions(
            regions=("frankfurt", "sydney"), clients_per_region=4,
            arrival_rate_rps=2.0, collaboration=True,
        )
        first = run_multiregion_scaling(tiny, options=options, client_scaling=(4,))
        second = run_multiregion_scaling(tiny, options=options, client_scaling=(4,))
        assert first == second
        # Per-region rows plus the deployment-wide aggregate row.
        assert {row.region for row in first} == {"frankfurt", "sydney", "all"}
        for row in first:
            assert row.mean_latency_ms > 0
            assert row.p50_latency_ms <= row.p95_latency_ms <= row.p99_latency_ms
            assert row.throughput_rps > 0
        deployment = [row for row in first if row.region == "all"]
        regions = [row for row in first if row.region != "all"]
        assert len(deployment) == 1
        # Total throughput is the sum of the regions' (same duration).
        assert deployment[0].throughput_rps == pytest.approx(
            sum(row.throughput_rps for row in regions), rel=1e-6
        )
        # Neighbour-read traffic is reported per region and summed in the
        # deployment row (and rendered as its own column).
        assert deployment[0].neighbor_chunks == pytest.approx(
            sum(row.neighbor_chunks for row in regions)
        )
        from repro.experiments.multiregion import render_multiregion
        assert "neighbor chunks" in render_multiregion(first).render()


class TestHeterogeneousRegionOptions:
    def test_parse_cache_size(self):
        from repro.experiments.common import parse_cache_size

        assert parse_cache_size("256MB") == 256 * 1024 * 1024
        assert parse_cache_size("64kb") == 64 * 1024
        assert parse_cache_size("1 GB") == 1024 ** 3
        assert parse_cache_size("1048576") == 1048576
        with pytest.raises(ValueError):
            parse_cache_size("zero")
        with pytest.raises(ValueError):
            parse_cache_size("-5MB")

    def test_parse_region_spec(self):
        from repro.experiments.common import RegionSpecOption

        full = RegionSpecOption.parse("frankfurt:agar:256MB")
        assert full.region == "frankfurt"
        assert full.strategy == "agar"
        assert full.cache_capacity_bytes == 256 * 1024 * 1024
        bare = RegionSpecOption.parse("sydney")
        assert bare.strategy is None and bare.cache_capacity_bytes is None
        cache_only = RegionSpecOption.parse("sydney::64MB")
        assert cache_only.strategy is None
        assert cache_only.cache_capacity_bytes == 64 * 1024 * 1024
        with pytest.raises(ValueError):
            RegionSpecOption.parse("a:b:c:d")
        with pytest.raises(ValueError):
            RegionSpecOption.parse(":agar")

    def test_build_region_specs_applies_overrides(self):
        from repro.experiments.common import EngineOptions, RegionSpecOption

        options = EngineOptions(
            clients_per_region=3,
            region_specs=(
                RegionSpecOption("frankfurt", strategy="agar",
                                 cache_capacity_bytes=8 * 1024 * 1024),
                RegionSpecOption("sydney"),
            ),
        )
        specs = options.build_region_specs(("ignored",), "lfu-5")
        assert [spec.region for spec in specs] == ["frankfurt", "sydney"]
        assert specs[0].strategy == "agar"
        assert specs[0].cache_capacity_bytes == 8 * 1024 * 1024
        assert specs[1].strategy == "lfu-5"  # falls back to the sweep strategy
        assert specs[1].cache_capacity_bytes is None
        assert all(spec.clients == 3 for spec in specs)

    def test_cli_rejects_conflicting_region_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["multiregion", "--quick", "--regions", "frankfurt",
                  "--region", "sydney"])

    def test_cli_heterogeneous_multiregion(self):
        out = io.StringIO()
        code = main(["multiregion", "--quick", "--clients-per-region", "1",
                     "--region", "frankfurt:agar:8MB",
                     "--region", "sydney:lfu-5:2MB",
                     "--no-collaboration"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "lfu-5" in text and "agar" in text
        assert "all" in text

    def test_fig6_pinned_regions_label_actual_strategy(self, monkeypatch):
        """A --region-pinned region's rows must carry the strategy that ran."""
        from repro.experiments import cli as cli_module
        from repro.experiments.common import ExperimentSettings as Settings

        tiny = Settings(runs=1, request_count=40, object_count=20, seed=3)
        monkeypatch.setattr(cli_module, "_settings", lambda args: tiny)
        out = io.StringIO()
        assert main(["fig6", "--quick", "--region", "frankfurt:lfu-5",
                     "--region", "sydney"], out=out) == 0
        text = out.getvalue()
        # frankfurt only ever ran lfu-5: its column shows '-' for other rows,
        # and no misattributed agar/backend numbers.
        agar_row = next(line for line in text.splitlines()
                        if line.startswith("agar"))
        assert "-" in agar_row

    def test_fig6_fully_pinned_runs_single_deployment(self, monkeypatch):
        from repro.experiments import cli as cli_module
        from repro.experiments.common import ExperimentSettings as Settings

        tiny = Settings(runs=1, request_count=40, object_count=20, seed=3)
        monkeypatch.setattr(cli_module, "_settings", lambda args: tiny)
        out = io.StringIO()
        assert main(["fig6", "--quick", "--region", "frankfurt:agar:8MB",
                     "--region", "sydney:lfu-5:2MB"], out=out) == 0
        text = out.getvalue()
        assert "agar" in text and "lfu-5" in text

    def test_cli_rejects_nonfinite_cache_size(self):
        with pytest.raises(SystemExit):
            main(["multiregion", "--quick", "--region", "frankfurt:agar:1e500"])

    def test_fig8_rejects_pinned_strategies(self):
        with pytest.raises(SystemExit):
            main(["fig8b", "--quick", "--region", "frankfurt:lfu-5",
                  "--region", "sydney"], out=io.StringIO())
        with pytest.raises(SystemExit):
            main(["fig8a", "--quick", "--region", "frankfurt::64MB"],
                 out=io.StringIO())

    def test_region_capacity_adapts_agar_config(self):
        from repro.experiments.common import (
            EngineOptions, MEGABYTE, RegionSpecOption, agar_config_for_capacity,
        )

        options = EngineOptions(region_specs=(
            RegionSpecOption("frankfurt", strategy="agar",
                             cache_capacity_bytes=100 * MEGABYTE),
            RegionSpecOption("sydney", strategy="lfu-5",
                             cache_capacity_bytes=100 * MEGABYTE),
        ))
        specs = options.build_region_specs((), "agar")
        assert specs[0].agar == agar_config_for_capacity(100 * MEGABYTE)
        assert specs[0].agar.manager.max_candidate_keys == 200
        assert specs[1].agar is None  # non-agar regions take no node config

    def test_region_spec_rejects_unknown_strategy(self):
        from repro.experiments.common import RegionSpecOption

        with pytest.raises(ValueError, match="unknown strategy"):
            RegionSpecOption.parse("frankfurt:bogus")
        # Valid names of every family still parse.
        for name in ("backend", "agar", "lru-3", "lfu-9", "lfu-online-2"):
            assert RegionSpecOption.parse(f"frankfurt:{name}").strategy == name

    def test_fig6_rejects_partial_pin_with_collaboration(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--quick", "--collaboration",
                  "--region", "frankfurt:agar", "--region", "sydney"],
                 out=io.StringIO())
