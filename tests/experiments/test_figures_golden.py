"""Golden figure output, frozen at the commit named in the file.

``tests/golden/figures.json`` was produced by ``tests/golden/freeze_figures.py``
while the classic single-client driver (``Simulation``) still stood beside
``run_engine_many``.  Replaying every command pins what each figure prints —
the paper's numbers included — across versions, which the shape and inequality
assertions of the other experiment tests cannot.  A deliberate change to a
figure regenerates the file in its own commit (``--force``), never alongside a
refactor.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

_spec = importlib.util.spec_from_file_location(
    "freeze_figures", GOLDEN_DIR / "freeze_figures.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

GOLDEN = json.loads((GOLDEN_DIR / "figures.json").read_text())


def test_golden_file_covers_every_case():
    assert sorted(set(GOLDEN) - {"generated_at_commit"}) == sorted(freeze.cases())


@pytest.mark.parametrize("name", freeze.cases())
def test_output_reproduces(name):
    assert freeze.run_case(name) == "".join(GOLDEN[name])


def test_the_engine_flags_change_what_is_printed():
    """Every fig6 variant prints its own table — the flags are not ignored."""
    fig6 = ["".join(GOLDEN[name]) for name in freeze.COMMANDS
            if name.startswith("fig6")]
    assert len(fig6) == 5
    assert len(set(fig6)) == len(fig6)
