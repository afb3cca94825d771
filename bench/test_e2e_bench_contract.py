"""Contract of the end-to-end benchmark, checked on ``--smoke`` shapes.

Everything here launches ``bench/run.py`` in interpreters of its own, as the
driver does: the traced pass rebinds class attributes for the life of its
process, which must not leak into the test session.  The runs are launched
together and share the box, so no timing they report means anything; names,
units, counts and verdicts do.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
LEGAL_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE = ("--smoke", "--seconds", "2")


def _launch(*arguments: str, script: Path = BENCH / "run.py"):
    # As the driver starts it: nothing on PYTHONPATH, found by its own path.
    environment = {name: value for name, value in os.environ.items()
                   if name != "PYTHONPATH"}
    return subprocess.Popen([sys.executable, str(script), *arguments],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=environment, cwd=script.parent.parent)


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every run the tests below read, launched at once.

    The two passes over all workloads go out as two commands so that they
    share the two cores; ``run.py`` itself never runs two things at a time.
    """
    folder = tmp_path_factory.mktemp("bench")
    files = {"end_to_end": folder / "end_to_end.json",
             "per_layer": folder / "per_layer.json"}
    one = ("--workload", "engine_clean", "--trace", "0")
    launched = {
        "end_to_end": _launch(*SMOKE, "--seed", "7", "--trace", "0",
                              "--out", str(files["end_to_end"])),
        "per_layer": _launch(*SMOKE, "--seed", "7", "--trace", "1",
                             "--out", str(files["per_layer"])),
        "same_seed": _launch(*SMOKE, *one, "--seed", "7"),
        "other_seed": _launch(*SMOKE, *one, "--seed", "8"),
        "corrupted": _launch(*SMOKE, "--workload", "wire_hot", "--trace", "0",
                             "--seed", "7", "--self-test-corrupt"),
    }
    finished = {}
    for name, process in launched.items():
        stdout, stderr = process.communicate(timeout=120)
        finished[name] = (process.returncode, stdout, stderr)
    return finished, files


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_every_workload_reports_every_metric(runs, section):
    finished, files = runs
    code, stdout, stderr = finished[section]
    assert code == 0, stdout + stderr
    document = json.loads(files[section].read_text())
    assert list(document["workloads"]) == WORKLOADS
    assert {"nproc", "python", "numpy", "commit"} <= document["environment"].keys()
    expected = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    for workload, passes in document["workloads"].items():
        result = passes[section]
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        assert result["metrics"].keys() == expected.keys(), workload
        for name, metric in result["metrics"].items():
            assert LEGAL_NAME.fullmatch(name), name
            assert metric["unit"] == expected[name]
            assert math.isfinite(metric["value"]), (workload, name)
            if section == "end_to_end":
                # The driver rejects an end-to-end metric that reads 0.
                assert metric["value"] > 0, (workload, name)
                assert f"  {name} " in stdout


def test_layer_self_times_cover_the_slice(runs):
    document = json.loads(runs[1]["per_layer"].read_text())
    for workload, passes in document["workloads"].items():
        share = passes["per_layer"]["metrics"]["trace.coverage_share"]["value"]
        assert 0.9 <= share <= 1.1, (workload, share)


def test_modelled_metrics_are_exact_for_a_seed(runs):
    finished, files = runs
    document = json.loads(files["end_to_end"].read_text())
    first = document["workloads"]["engine_clean"]["end_to_end"]["metrics"]
    again = _result_line(finished["same_seed"][1])
    other = _result_line(finished["other_seed"][1])
    # The driver's result line has exactly these keys.
    assert again.keys() == {"correct", "attempted", "failed", "metrics"}
    for name in ("model_read_ms", "model_p99_ms"):
        assert again["metrics"][name]["value"] == first[name]["value"]
        assert other["metrics"][name]["value"] != first[name]["value"]


def test_a_corrupted_body_fails_the_run(runs):
    code, stdout, stderr = runs[0]["corrupted"]
    assert code == 1
    result = _result_line(stdout)
    assert result["correct"] is False and result["failed"] >= 1
    assert "body mismatch" in stderr


def test_compare_accepts_a_run_against_itself(runs):
    out = runs[1]["end_to_end"]
    done = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = done.stdout.splitlines()[1:]
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"])
    # Concurrent smoke slices may be too noisy to resolve; never "worse".
    assert all(row.endswith(("within", "unresolved")) for row in rows)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    """The driver also runs the benchmark where only its own files exist."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = _launch("--workload", "wire_hot", "--seed", "1", "--seconds", "1",
                      "--trace", "0", script=tmp_path / "bench" / "run.py")
    stdout, _stderr = process.communicate(timeout=60)
    assert process.returncode != 0
    assert stdout.strip() == ""
