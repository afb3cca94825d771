"""``tools/bench_pairs.py`` driven end to end against two stub checkouts.

Each stub checkout holds a ``bench/run.py`` that answers the real harness's
command line with a canned result line, so the pairing protocol — who runs
first, which seed, what is compared, which verdict follows — is tested
without measuring anything.
"""

import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "bench_pairs.py"

SPEC = {
    "run_seconds": 2,
    "workloads": [{"name": "wire_hot", "why": "a"}, {"name": "engine_clean", "why": "b"},
                  {"name": "engine_faulted", "why": "c"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_ref_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "model_read_ms", "unit": "ms", "better": "lower", "bound": 0.03},
    ],
}

STUB = textwrap.dedent('''
    import argparse, json
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload"); parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int); parser.add_argument("--trace", type=int)
    args = parser.parse_args()
    with open({log!r}, "a") as log:
        log.write("{side} %s %d %d %d\\n" % (args.workload, args.seed, args.seconds, args.trace))
    rates = {rates!r}
    print("a progress line the harness may print first")
    print(json.dumps({{"correct": {correct!r}, "attempted": 64, "failed": 0, "metrics": {{
        "setup_s": {{"value": 0.007, "unit": "s"}},
        "ops_per_ref_s": {{"value": rates[args.seed % len(rates)], "unit": "1/s"}},
        "model_read_ms": {{"value": 500.0 + args.seed + {model_shift!r}, "unit": "ms"}}}}}}))
''')


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, side: str, rates, log: Path, correct=True,
              model_shift=0.0) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(STUB.format(
        side=side, rates=rates, log=str(log), correct=correct,
        model_shift=model_shift))
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return root


def _main(bench_pairs, tmp_path, parent_rates, change_rates, pairs=10, **change):
    log = tmp_path / "runs.log"
    parent = _checkout(tmp_path / "parent", "parent", parent_rates, log)
    changed = _checkout(tmp_path / "change", "change", change_rates, log, **change)
    out = tmp_path / "pairs.json"
    code = bench_pairs.main([
        "--parent", str(parent), "--change", str(changed), "--workload", "engine_clean",
        "--pairs", str(pairs), "--first-seed", "40", "--claim", "ops_per_ref_s",
        "--out", str(out)])
    return code, json.loads(out.read_text()), log.read_text().splitlines()


def test_pairs_alternate_and_share_a_fresh_seed(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "DEFAULT_COMMAND", (sys.executable, "bench/run.py"))
    code, document, runs = _main(bench_pairs, tmp_path, [100.0], [130.0], pairs=4)
    assert code == 0
    # The harness's own command line, the run length from BENCHMARK.json, and
    # the side that goes first swapping from pair to pair.
    assert runs == [
        "parent engine_clean 40 2 0", "change engine_clean 40 2 0",
        "change engine_clean 41 2 0", "parent engine_clean 41 2 0",
        "parent engine_clean 42 2 0", "change engine_clean 42 2 0",
        "change engine_clean 43 2 0", "parent engine_clean 43 2 0"]
    assert [(row["seed"], row["first"]) for row in document["pairs"]] == [
        (40, "parent"), (41, "change"), (42, "parent"), (43, "change")]
    assert document["seconds"] == 2 and document["claimed"] == "ops_per_ref_s"


def test_a_clear_gain_is_shown_and_the_rest_held_to_its_bound(
        bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "DEFAULT_COMMAND", (sys.executable, "bench/run.py"))
    code, document, _ = _main(bench_pairs, tmp_path,
                              [100.0, 104.0, 98.0], [131.0, 128.0, 135.0])
    summary = document["summary"]
    rate = summary["metrics"]["ops_per_ref_s"]
    assert code == 0
    assert rate["verdict"] == "gain shown"
    assert (rate["pairs_won"], rate["pairs_lost"], rate["pairs_tied"]) == (10, 0, 0)
    assert rate["ratio"] == pytest.approx(rate["change_median"] / rate["parent_median"])
    assert summary["metrics"]["setup_s"]["verdict"] == "within"
    assert summary["metrics"]["model_read_ms"]["verdict"] == "within"
    assert summary["decision_only_agree"] and summary["all_correct"]


def test_eight_of_ten_is_not_a_gain(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "DEFAULT_COMMAND", (sys.executable, "bench/run.py"))
    # Seeds 40..49 index the ten rates: the change loses pairs 3 and 7.
    change = [130.0, 130.0, 130.0, 90.0, 130.0, 130.0, 130.0, 90.0, 130.0, 130.0]
    code, document, _ = _main(bench_pairs, tmp_path, [100.0] * 10, change)
    rate = document["summary"]["metrics"]["ops_per_ref_s"]
    assert rate["pairs_won"] == 8 and rate["verdict"] == "gain not shown"
    assert code == 0          # unproven is not a failure


def test_a_gap_inside_the_parents_quartiles_is_not_a_gain(
        bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "DEFAULT_COMMAND", (sys.executable, "bench/run.py"))
    parent = [100.0, 140.0, 100.0, 140.0, 100.0, 140.0, 100.0, 140.0, 100.0, 140.0]
    change = [value + 5.0 for value in parent]        # ahead in 10 of 10, by little
    _, document, _ = _main(bench_pairs, tmp_path, parent, change)
    rate = document["summary"]["metrics"]["ops_per_ref_s"]
    assert rate["pairs_won"] == 10 and rate["verdict"] == "gain not shown"


def test_a_moved_model_reading_or_a_failed_run_fails_the_tool(
        bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "DEFAULT_COMMAND", (sys.executable, "bench/run.py"))
    code, document, _ = _main(bench_pairs, tmp_path / "moved", [100.0], [130.0],
                              pairs=2, model_shift=0.001)
    assert code == 1 and not document["summary"]["decision_only_agree"]
    code, document, _ = _main(bench_pairs, tmp_path / "failed", [100.0], [130.0],
                              pairs=2, correct=False)
    assert code == 1 and not document["summary"]["all_correct"]


def _main_many(bench_pairs, tmp_path, capsys, workload, claim):
    log = tmp_path / "runs.log"
    parent = _checkout(tmp_path / "parent", "parent", [100.0], log)
    changed = _checkout(tmp_path / "change", "change", [130.0], log)
    code = bench_pairs.main([
        "--parent", str(parent), "--change", str(changed), "--workload", workload,
        "--pairs", "2", "--first-seed", "40", "--claim", claim])
    documents = {path.name.split("-pairs-")[1][:-len(".json")]: json.loads(path.read_text())
                 for path in sorted((changed / "docs" / "results").glob("*-local-pairs-*.json"))}
    return code, documents, log.read_text().splitlines(), capsys.readouterr().out


def test_a_comma_list_runs_each_workload_and_closes_with_one_table(
        bench_pairs, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_pairs, "DEFAULT_COMMAND", (sys.executable, "bench/run.py"))
    code, documents, runs, printed = _main_many(
        bench_pairs, tmp_path, capsys, "engine_faulted,wire_hot",
        "engine_faulted:ops_per_ref_s")
    assert code == 0
    # One workload after the other, each with the full alternating protocol
    # and the same seeds, each in a file of its own.
    assert [run.split()[:3] for run in runs] == [
        ["parent", "engine_faulted", "40"], ["change", "engine_faulted", "40"],
        ["change", "engine_faulted", "41"], ["parent", "engine_faulted", "41"],
        ["parent", "wire_hot", "40"], ["change", "wire_hot", "40"],
        ["change", "wire_hot", "41"], ["parent", "wire_hot", "41"]]
    assert list(documents) == ["engine_faulted", "wire_hot"]
    # The claim is made where it was named; elsewhere the metric is only
    # held to its bound.
    assert documents["engine_faulted"]["claimed"] == "ops_per_ref_s"
    assert documents["wire_hot"]["claimed"] is None
    assert (documents["engine_faulted"]["summary"]["metrics"]["ops_per_ref_s"]["verdict"]
            == "gain shown")
    assert (documents["wire_hot"]["summary"]["metrics"]["ops_per_ref_s"]["verdict"]
            == "within")
    table = printed[printed.rindex("workload "):].splitlines()
    assert [line.split()[0] for line in table[1:3]] == ["engine_faulted", "wire_hot"]
    assert "gain shown x1.300" in table[1] and "within x1.300" in table[2]
    assert table[1].endswith("ok") and table[2].endswith("ok")


def test_all_means_every_workload_of_the_benchmark(
        bench_pairs, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_pairs, "DEFAULT_COMMAND", (sys.executable, "bench/run.py"))
    code, documents, runs, _ = _main_many(bench_pairs, tmp_path, capsys, "all",
                                          "ops_per_ref_s")
    assert code == 0
    assert sorted(documents) == sorted(entry["name"] for entry in SPEC["workloads"])
    assert len(runs) == 2 * 2 * len(SPEC["workloads"])
    assert all(document["claimed"] == "ops_per_ref_s" for document in documents.values())


def test_one_result_path_cannot_hold_two_workloads(bench_pairs, tmp_path):
    log = tmp_path / "runs.log"
    parent = _checkout(tmp_path / "parent", "parent", [100.0], log)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(parent), "--change", str(parent),
                          "--workload", "wire_hot,engine_clean",
                          "--out", str(tmp_path / "pairs.json")])
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(parent), "--change", str(parent),
                          "--workload", "wire_hot", "--claim", "reconfig:setup_s"])
    assert not log.exists()


def test_a_regression_past_the_bound_is_worse_and_a_wide_spread_unresolved(bench_pairs):
    def rows(parent, change):
        return [{"seed": index,
                 "parent": {"correct": True, "failed": 0, "setup_s": 0.007,
                            "ops_per_ref_s": p, "model_read_ms": 500.0},
                 "change": {"correct": True, "failed": 0, "setup_s": 0.007,
                            "ops_per_ref_s": c, "model_read_ms": 500.0}}
                for index, (p, c) in enumerate(zip(parent, change))]

    worse = bench_pairs.summarise(rows([100.0] * 6, [70.0] * 6), SPEC, claimed=None)
    assert worse["metrics"]["ops_per_ref_s"]["verdict"] == "worse"
    # The parent's own quartiles are 40 % apart: nothing resolves at a 25 % bound
    # unless every run of the change beats every run of the parent.
    noisy = [100.0, 150.0, 100.0, 150.0, 100.0, 150.0]
    unresolved = bench_pairs.summarise(rows(noisy, noisy[::-1]), SPEC, claimed=None)
    assert unresolved["metrics"]["ops_per_ref_s"]["verdict"] == "unresolved"
    swept = bench_pairs.summarise(rows(noisy, [160.0] * 6), SPEC, claimed=None)
    assert swept["metrics"]["ops_per_ref_s"]["verdict"] == "within"
