"""Golden sharded engine runs, frozen at the commit named in the file.

``tests/golden/engine_sharded.json`` was produced by
``tests/golden/freeze_engine_sharded.py`` while ``execute_sharded`` still had a
run-to-finish executor beside the §VI round protocol.  Reproducing it through
both transports pins sharded runs across versions, which the fork ≡ in-process
and run ≡ rerun checks of ``test_engine_equivalence.py`` cannot.  A legitimate
behaviour change regenerates the file in its own commit (``--force``), never
alongside a refactor.
"""

import importlib.util
import json
import multiprocessing
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

_spec = importlib.util.spec_from_file_location(
    "freeze_engine_sharded", GOLDEN_DIR / "freeze_engine_sharded.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

GOLDEN = json.loads((GOLDEN_DIR / "engine_sharded.json").read_text())

FORK = "fork" in multiprocessing.get_all_start_methods()


def test_golden_file_covers_every_shape():
    assert sorted(set(GOLDEN) - {"generated_at_commit"}) == sorted(freeze.shapes())


@pytest.mark.parametrize("processes", [
    pytest.param(False, id="in-process"),
    pytest.param(True, id="forked", marks=pytest.mark.skipif(
        not FORK, reason="the fork start method is unavailable")),
])
@pytest.mark.parametrize("name", list(freeze.shapes()))
def test_shape_reproduces(name, processes):
    assert freeze.run_case(name, processes) == GOLDEN[name]


def test_the_shapes_are_not_one_run():
    """Every shape hashes to its own digest, and a rerun on the cold parent
    deployment repeats it (workers mutate copies)."""
    first_runs = [GOLDEN[name]["runs"][0] for name in freeze.shapes()]
    assert len(set(first_runs)) == len(first_runs)
    for name in freeze.shapes():
        assert len(set(GOLDEN[name]["runs"])) == 1
