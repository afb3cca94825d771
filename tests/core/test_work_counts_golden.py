"""Exact work counts of two benchmark shapes, frozen at the commits named in the file.

``tests/golden/work_counts.json`` was produced by
``tests/golden/freeze_work_counts.py``.  The ``reconfig`` edition: 30 periods
× seeds 7 and 101 of the end-to-end benchmark's reconfiguration shape, per
period the candidate, option and DP work counters, the configured chunks,
the value's bits and a digest of the installed chunk ids.  The
``engine_clean`` edition: one ``execute`` per seed of the engine benchmark's
clean shape, per region the hit classes, chunk totals, cache counters,
requests seen and a latency digest, plus the jitter stream's position.  A
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


def test_golden_file_covers_every_seed():
    assert sorted(set(GOLDEN) - {"generated_at_commit", "engine_clean"}) == sorted(
        f"seed{seed}" for seed in freeze.SEEDS)
    assert all(len(GOLDEN[f"seed{seed}"]) == freeze.PERIODS for seed in freeze.SEEDS)
    assert sorted(set(GOLDEN["engine_clean"]) - {"generated_at_commit"}) == sorted(
        f"seed{seed}" for seed in freeze.SEEDS)


@pytest.mark.parametrize("seed", freeze.SEEDS)
def test_every_period_reproduces(seed):
    expected = GOLDEN[f"seed{seed}"]
    for period, (got, want) in enumerate(zip(freeze.run_seed(seed), expected)):
        assert got == want, f"seed {seed}, period {period}"


@pytest.mark.parametrize("seed", freeze.SEEDS)
def test_engine_clean_reproduces(seed):
    assert freeze.run_engine_clean(seed) == GOLDEN["engine_clean"][f"seed{seed}"]
