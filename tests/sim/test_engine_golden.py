"""Golden engine runs, frozen at the commit named in the file.

``tests/golden/engine.json`` was produced by ``tests/golden/freeze_engine.py``
once every region drew from its own jitter stream and ``execute`` became the
in-process transport of the shard protocol.  ``execute ≡ execute_heap``
(``tests/reference/heap_scheduler.py``) compares two schedulers of one
commit; reproducing this file pins ``execute`` — latencies, kept reads, cache
churn counters, per-entry recency, request counts and the jitter stream's
position, on a cold and on a warm deployment — and ``execute_sharded``, in
process and forked, across versions.  A legitimate behaviour change
regenerates the file in its own commit (``--force``), never alongside a
refactor.
"""

import importlib.util
import json
import multiprocessing
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

_spec = importlib.util.spec_from_file_location(
    "freeze_engine", GOLDEN_DIR / "freeze_engine.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

GOLDEN = json.loads((GOLDEN_DIR / "engine.json").read_text())

FORK = "fork" in multiprocessing.get_all_start_methods()


def test_golden_file_covers_every_shape():
    assert sorted(set(GOLDEN) - {"generated_at_commit"}) == sorted(freeze.shapes())


@pytest.mark.parametrize("name", list(freeze.shapes()))
def test_execute_reproduces(name):
    assert freeze.run_case(name) == GOLDEN[name]


@pytest.mark.parametrize("processes", [
    pytest.param(False, id="in-process"),
    pytest.param(True, id="forked", marks=pytest.mark.skipif(
        not FORK, reason="the fork start method is unavailable")),
])
@pytest.mark.parametrize("name", list(freeze.shapes()))
def test_sharded_reproduces_the_cold_run(name, processes):
    """A sharded run leaves the parent cold, so every rerun is the first
    ``execute`` run again."""
    first = GOLDEN[name]["runs"][0]["reads"]
    assert freeze.sharded_reads(name, processes) == [first] * freeze.RUNS


def test_the_shapes_are_not_one_run():
    """Every shape and every run hashes to its own digests: the second run
    reads the cache the first one filled."""
    digests = [run[part] for name in freeze.shapes()
               for run in GOLDEN[name]["runs"] for part in ("reads", "state")]
    assert len(set(digests)) == len(digests)
