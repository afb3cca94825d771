"""Golden caching options, frozen at the commit named in the file.

``tests/golden/options.json`` was produced by
``tests/golden/freeze_options.py`` while ``generate_options`` still stamped
every option of every candidate key eagerly.  Reproducing it — with the
mapping materialised in full — pins the keys the knapsack never reaches,
which the reconfiguration golden cannot see.  A legitimate behaviour change
regenerates the file in its own commit (``--force``), never alongside an
optimisation.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

_spec = importlib.util.spec_from_file_location(
    "freeze_options", GOLDEN_DIR / "freeze_options.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

GOLDEN = json.loads((GOLDEN_DIR / "options.json").read_text())


def test_golden_file_covers_every_case():
    assert sorted(set(GOLDEN) - {"generated_at_commit"}) == sorted(
        freeze.case_name(*case) for case in freeze.cases())


@pytest.mark.parametrize("case", freeze.cases(),
                         ids=[freeze.case_name(*case) for case in freeze.cases()])
def test_case_reproduces(case):
    assert freeze.run_case(*case) == GOLDEN[freeze.case_name(*case)]


def test_the_cases_are_not_one_ladder():
    """The explicit placement and the outage view give differently shaped ladders."""
    counts = {name: {count for _, count, _ in entries}
              for name, entries in GOLDEN.items() if name != "generated_at_commit"}
    assert counts["seed3/round_robin/healthy"] == {5}
    assert len(counts["seed3/explicit/healthy"]) > 2
    assert GOLDEN["seed3/round_robin/healthy"] != GOLDEN["seed3/round_robin/sao_paulo_down"]
