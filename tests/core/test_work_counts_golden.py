"""Exact work counts of three benchmark shapes, frozen at the commits named in the file.

``tests/golden/work_counts.json`` was produced by
``tests/golden/freeze_work_counts.py``.  The ``reconfig`` edition: 30 periods
× seeds 7 and 101 of the end-to-end benchmark's reconfiguration shape, per
period the candidate, option and DP work counters, the configured chunks,
the value's bits and a digest of the installed chunk ids.  The
``engine_clean`` edition: one ``execute`` per seed of the engine benchmark's
clean shape, per region the hit classes, chunk totals, cache counters,
requests seen and a latency digest, plus the jitter stream's position.  The
``engine_faulted`` edition: the same for the faulted engine shape, plus the
degraded, unavailable, retried and hedged reads and, per periodic or
emergency reconfiguration, the DP counters and installed chunks.  A
speed-up must reproduce every count; a change that moves one on purpose
regenerates the file (``--force``) and says why.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

_spec = importlib.util.spec_from_file_location(
    "freeze_work_counts", GOLDEN_DIR / "freeze_work_counts.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

GOLDEN = json.loads((GOLDEN_DIR / "work_counts.json").read_text())


ENGINE_EDITIONS = ("engine_clean", "engine_faulted")


def test_golden_file_covers_every_seed():
    seeds = sorted(f"seed{seed}" for seed in freeze.SEEDS)
    assert sorted(set(GOLDEN) - {"generated_at_commit", *ENGINE_EDITIONS}) == seeds
    assert all(len(GOLDEN[f"seed{seed}"]) == freeze.PERIODS for seed in freeze.SEEDS)
    for edition in ENGINE_EDITIONS:
        assert sorted(set(GOLDEN[edition]) - {"generated_at_commit"}) == seeds


@pytest.mark.parametrize("seed", freeze.SEEDS)
def test_every_period_reproduces(seed):
    expected = GOLDEN[f"seed{seed}"]
    for period, (got, want) in enumerate(zip(freeze.run_seed(seed), expected)):
        assert got == want, f"seed {seed}, period {period}"


@pytest.mark.parametrize("seed", freeze.SEEDS)
def test_engine_clean_reproduces(seed):
    assert freeze.run_engine(seed) == GOLDEN["engine_clean"][f"seed{seed}"]


@pytest.mark.parametrize("seed", freeze.SEEDS)
def test_engine_faulted_reproduces(seed):
    assert freeze.run_engine(seed, faulted=True) == GOLDEN["engine_faulted"][f"seed{seed}"]


def test_engine_faulted_covers_both_triggers():
    """Each region re-solves on the timer and on the outage's onset and recovery."""
    for run in (GOLDEN["engine_faulted"][f"seed{seed}"] for seed in freeze.SEEDS):
        for region in run["regions"].values():
            triggers = [entry["trigger"] for entry in region["reconfigurations"]]
            assert triggers.count("emergency") >= 2 and "periodic" in triggers
