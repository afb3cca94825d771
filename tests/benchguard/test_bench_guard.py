"""Tests for the graduated benchmark gate (``benchmarks/run_bench.py``).

The guard is a script, not a package module; it is loaded by file path.
These tests drive the comparison logic on synthetic data — a fabricated
regression must fail the gate, matching numbers must pass — and exercise
``main(--compare ...)`` end to end with the suite runner stubbed out, so no
actual benchmarks run inside the tier-1 suite.
"""

import importlib.util
import io
import json
import pathlib
import re

import pytest

_RUN_BENCH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "run_bench.py"


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location("run_bench_under_test", _RUN_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_json(means_ms: dict[str, float]) -> dict:
    """A minimal pytest-benchmark payload with the given means (ms)."""
    return {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean_ms / 1000.0}}
            for name, mean_ms in means_ms.items()
        ]
    }


class TestCompare:
    def test_within_band_passes(self, run_bench):
        failures = run_bench.compare(
            means={"a": 0.110}, baseline={"a": 0.100},
            tolerance=0.20, names=("a",), out=io.StringIO(),
        )
        assert failures == []

    def test_synthetic_regression_fails(self, run_bench):
        failures = run_bench.compare(
            means={"a": 0.150}, baseline={"a": 0.100},
            tolerance=0.20, names=("a",), out=io.StringIO(),
        )
        assert len(failures) == 1
        assert "exceeds baseline" in failures[0]

    def test_per_benchmark_band_beats_flat_tolerance(self, run_bench):
        """A 50% regression passes a 60% band and fails a 20% one, regardless
        of the flat default."""
        means = {"wide": 0.150, "tight": 0.150}
        baseline = {"wide": 0.100, "tight": 0.100}
        failures = run_bench.compare(
            means, baseline, tolerance=0.20,
            tolerances={"wide": 0.60}, names=("wide", "tight"),
            out=io.StringIO(),
        )
        assert len(failures) == 1
        assert failures[0].startswith("tight:")

    def test_missing_entries_fail_loudly(self, run_bench):
        failures = run_bench.compare(
            means={"a": 0.1}, baseline={"b": 0.1},
            tolerance=0.20, names=("a", "b"), out=io.StringIO(),
        )
        assert {failure.split(":")[0] for failure in failures} == {"a", "b"}

    def test_improvement_always_passes(self, run_bench):
        failures = run_bench.compare(
            means={"a": 0.010}, baseline={"a": 0.100},
            tolerance=0.0, names=("a",), out=io.StringIO(),
        )
        assert failures == []


class TestLoadBaseline:
    def test_committed_format_with_bands(self, run_bench, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "means_s": {"a": 0.1}, "tolerances": {"a": 0.5},
        }))
        means, tolerances = run_bench.load_baseline(path)
        assert means == {"a": 0.1}
        assert tolerances == {"a": 0.5}

    def test_artifact_format_without_bands(self, run_bench, tmp_path):
        path = tmp_path / "BENCH_artifact.json"
        path.write_text(json.dumps(_bench_json({"a": 100.0})))
        means, tolerances = run_bench.load_baseline(path)
        assert means == {"a": pytest.approx(0.1)}
        assert tolerances == {}

    def test_unrecognised_format_rejected(self, run_bench, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"something": 1}))
        with pytest.raises(ValueError):
            run_bench.load_baseline(path)

    def test_committed_baseline_covers_every_guarded_benchmark(self, run_bench):
        """The shipped baseline must carry a mean and a band for every
        guarded benchmark, or the default gate would fail spuriously."""
        means, tolerances = run_bench.load_baseline(run_bench.BASELINE_PATH)
        for name in run_bench.GUARDED_BENCHMARKS:
            assert name in means
            assert name in tolerances

    def test_ci_baseline_covers_the_gated_subset(self, run_bench):
        """The gated names live in one place — the ``bench-gated`` recipe CI
        calls — and each has a mean and a band in ``ci_baseline.json``."""
        makefile = (_RUN_BENCH.parents[1] / "Makefile").read_text()
        recipe = makefile[makefile.index("\nbench-gated:"):]
        gated = re.search(r"--only (\S+)", recipe).group(1).split(",")
        assert "test_bench_collab_sharded_rounds" in gated
        assert set(gated) <= set(run_bench.GUARDED_BENCHMARKS)
        ci_path = run_bench.BASELINE_PATH.with_name("ci_baseline.json")
        means, tolerances = run_bench.load_baseline(ci_path)
        for name in gated:
            assert name in means
            assert name in tolerances


class TestMainCompareMode:
    """``--compare`` end to end, with the pytest invocation stubbed."""

    @pytest.fixture
    def stubbed(self, run_bench, monkeypatch, tmp_path):
        recorded = {}

        def fake_run_suite(json_path, smoke=False, names=run_bench.GUARDED_BENCHMARKS):
            recorded["names"] = names
            json_path.write_text(json.dumps(_bench_json(recorded["means_ms"])))
            return 0

        monkeypatch.setattr(run_bench, "run_suite", fake_run_suite)
        recorded["tmp"] = tmp_path
        return recorded

    def _baseline(self, tmp_path, means_ms, tolerances=None):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "means_s": {name: mean / 1000.0 for name, mean in means_ms.items()},
            "tolerances": tolerances or {},
        }))
        return path

    def test_compare_fails_on_synthetic_regression(self, run_bench, stubbed):
        name = run_bench.GUARDED_BENCHMARKS[0]
        stubbed["means_ms"] = {name: 200.0}
        baseline = self._baseline(stubbed["tmp"], {name: 100.0})
        exit_code = run_bench.main([
            "--compare", str(baseline), "--only", name,
            "--output", str(stubbed["tmp"] / "out.json"),
        ])
        assert exit_code == 1

    def test_compare_passes_within_band(self, run_bench, stubbed):
        name = run_bench.GUARDED_BENCHMARKS[0]
        stubbed["means_ms"] = {name: 110.0}
        baseline = self._baseline(stubbed["tmp"], {name: 100.0},
                                  tolerances={name: 0.25})
        exit_code = run_bench.main([
            "--compare", str(baseline), "--only", name,
            "--output", str(stubbed["tmp"] / "out.json"),
        ])
        assert exit_code == 0

    def test_only_restricts_the_suite(self, run_bench, stubbed):
        name = "test_bench_codec_encode_many"
        stubbed["means_ms"] = {name: 50.0}
        baseline = self._baseline(stubbed["tmp"], {name: 50.0})
        assert run_bench.main([
            "--compare", str(baseline), "--only", name,
            "--output", str(stubbed["tmp"] / "out.json"),
        ]) == 0
        assert stubbed["names"] == (name,)

    def test_only_rejects_unknown_names(self, run_bench):
        with pytest.raises(SystemExit):
            run_bench._parse_only("test_bench_nonexistent")

    def test_smoke_and_compare_are_exclusive(self, run_bench, tmp_path):
        with pytest.raises(SystemExit):
            run_bench.main(["--smoke", "--compare", str(tmp_path / "b.json")])

    def test_update_with_only_preserves_other_baselines(self, run_bench, stubbed,
                                                        monkeypatch):
        """`--update --only subset` must merge into the committed baseline,
        not shrink it to the subset that ran."""
        kept_name = run_bench.GUARDED_BENCHMARKS[1]
        updated_name = run_bench.GUARDED_BENCHMARKS[0]
        baseline_path = stubbed["tmp"] / "baseline.json"
        baseline_path.write_text(json.dumps({
            "means_s": {kept_name: 0.5, updated_name: 0.1},
            "tolerances": {"extra_custom_band": 0.9},
        }))
        monkeypatch.setattr(run_bench, "BASELINE_PATH", baseline_path)
        stubbed["means_ms"] = {updated_name: 200.0}
        assert run_bench.main([
            "--update", "--only", updated_name,
            "--output", str(stubbed["tmp"] / "out.json"),
        ]) == 0
        payload = json.loads(baseline_path.read_text())
        assert payload["means_s"][kept_name] == 0.5          # untouched
        assert payload["means_s"][updated_name] == pytest.approx(0.2)
        assert payload["tolerances"]["extra_custom_band"] == 0.9
        assert payload["tolerances"][updated_name] == \
            run_bench.DEFAULT_TOLERANCES[updated_name]


class TestStrippedArtifacts:
    """A result file keeps its summary statistics and loses the raw samples."""

    @pytest.fixture(scope="class")
    def reseed_baseline(self):
        path = _RUN_BENCH.parents[1] / "tools" / "reseed_baseline.py"
        spec = importlib.util.spec_from_file_location("reseed_baseline_under_test", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _unstripped(self, tmp_path) -> pathlib.Path:
        payload = _bench_json({"a": 12.5, "b": 0.75})
        for index, entry in enumerate(payload["benchmarks"]):
            entry["stats"].update(median=entry["stats"]["mean"], rounds=3,
                                  data=[0.01 * index, 0.02, 0.03])
        path = tmp_path / "BENCH_unstripped.json"
        path.write_text(json.dumps(payload, indent=4))
        return path

    def test_both_readers_see_the_same_means(self, run_bench, reseed_baseline, tmp_path):
        unstripped = self._unstripped(tmp_path)
        stripped = tmp_path / "BENCH_stripped.json"
        stripped.write_text(unstripped.read_text())
        run_bench.strip_samples(stripped)
        assert "data" in unstripped.read_text() and "data" not in stripped.read_text()
        for path in (unstripped, stripped):
            assert run_bench.load_means(path) == {"a": 0.0125, "b": 0.00075}
            assert run_bench.load_baseline(path) == ({"a": 0.0125, "b": 0.00075}, {})
            assert reseed_baseline.artifact_means(path) == {"a": 0.0125, "b": 0.00075}
        stats = json.loads(stripped.read_text())["benchmarks"][0]["stats"]
        assert stats == {"mean": 0.0125, "median": 0.0125, "rounds": 3}

    def test_committed_artifacts_carry_no_samples(self, run_bench):
        artifacts = sorted(run_bench.REPO_ROOT.glob("BENCH_*.json"))
        assert artifacts
        for path in artifacts:
            for entry in json.loads(path.read_text())["benchmarks"]:
                assert "mean" in entry["stats"] and "data" not in entry["stats"], path.name


class TestNewestArtifact:
    def test_it_records_every_guarded_benchmark(self, run_bench):
        """The newest committed ``BENCH_*.json`` is a full ``make bench`` run."""
        newest = sorted(run_bench.REPO_ROOT.glob("BENCH_*.json"))[-1]
        missing = set(run_bench.GUARDED_BENCHMARKS) - set(run_bench.load_means(newest))
        assert not missing, f"{newest.name} lacks {sorted(missing)}"


class TestSelectors:
    def test_every_guarded_benchmark_has_a_selector(self, run_bench):
        selectors = run_bench.selectors_for(run_bench.GUARDED_BENCHMARKS)
        assert len(selectors) == len(run_bench.GUARDED_BENCHMARKS)
        repo_root = run_bench.REPO_ROOT
        for selector in selectors:
            path, name = selector.split("::")
            assert (repo_root / path).exists(), selector
            assert name in (repo_root / path).read_text()
