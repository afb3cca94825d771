"""Golden plain-engine runs, frozen at the commit named in the file.

``tests/golden/engine_execute.json`` was produced by
``tests/golden/freeze_engine_execute.py`` on the commit *before* the read path
learnt to remember a key's hints per installed configuration, to probe the
cache once per read and to record a read as it is.  ``execute ≡
execute_heap`` (``tests/reference/heap_scheduler.py``) compares two schedulers
of one commit; reproducing this
file pins ``execute`` — latencies, kept reads, cache churn counters, per-entry
recency, request counts and the jitter stream's position — across versions.
A legitimate behaviour change regenerates the file in its own commit
(``--force``), never alongside a refactor.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

_spec = importlib.util.spec_from_file_location(
    "freeze_engine_execute", GOLDEN_DIR / "freeze_engine_execute.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

GOLDEN = json.loads((GOLDEN_DIR / "engine_execute.json").read_text())


def test_golden_file_covers_every_shape():
    assert sorted(set(GOLDEN) - {"generated_at_commit"}) == sorted(freeze.shapes())


@pytest.mark.parametrize("name", list(freeze.shapes()))
def test_shape_reproduces(name):
    assert freeze.run_case(name) == GOLDEN[name]


def test_the_shapes_are_not_one_run():
    """Every shape and every run hashes to its own digests: the second run
    reads the cache the first one filled."""
    digests = [run[part] for name in freeze.shapes()
               for run in GOLDEN[name]["runs"] for part in ("reads", "state")]
    assert len(set(digests)) == len(digests)
