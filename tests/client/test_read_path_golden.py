"""Golden digests of the read path, frozen at the commit named in the file.

``tests/golden/read_paths.json`` was produced by
``tests/golden/freeze_read_paths.py`` while the strategies still shipped a
string-keyed read path next to the plan-based one; reproducing it pins the
decisions, jitter draws and latencies of the single path bit-for-bit across
versions, through both entry points.  A legitimate behaviour change
regenerates the file in its own commit (``--force``), never alongside a
refactor.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

_spec = importlib.util.spec_from_file_location(
    "freeze_read_paths", GOLDEN_DIR / "freeze_read_paths.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

GOLDEN = json.loads((GOLDEN_DIR / "read_paths.json").read_text())


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN["strategies"]) == sorted(
        f"{strategy}/{scenario}" for strategy, scenario in freeze.cases())


@pytest.mark.parametrize("entry", freeze.ENTRIES)
@pytest.mark.parametrize("strategy,scenario", freeze.cases())
def test_strategy_digest(strategy, scenario, entry):
    expected = GOLDEN["strategies"][f"{strategy}/{scenario}"]
    results, sink = freeze.strategy_digests(strategy, scenario, entry)
    assert results == expected[entry]
    # The sink digest was frozen from the string entry point; both entry
    # points must hand the serving tier the same chunk-index lists.
    assert sink == expected["sink"]


@pytest.mark.parametrize("shape,faulted", [("clean", False),
                                           ("faulted_hedged", True)])
def test_engine_digest(shape, faulted):
    assert freeze.engine_digest(faulted) == GOLDEN["engine"][shape]


def test_wire_digest():
    assert freeze.wire_digest() == GOLDEN["wire"]["agar_512"]


def test_generator_refuses_to_overwrite(capsys):
    assert freeze.main([]) == 2
    assert "--force" in capsys.readouterr().err


def test_force_keeps_the_provenance_of_unmoved_entries():
    """``--force``'s merge: unmoved entries keep their stamps, moved ones are
    restamped, new ones stamped as added, dropped ones forgotten."""
    old = {
        "generated_at_commit": "base",
        "added_at_commit": {"agar/late": "late", "agar/gone": "late"},
        "regenerated_at_commit": {"engine/clean": "earlier"},
        "strategies": {"agar/plain": {"read": "a"}, "agar/late": {"read": "b"},
                       "agar/moved": {"read": "c"}, "agar/gone": {"read": "d"}},
        "engine": {"clean": "e", "faulted_hedged": "f"},
        "wire": {"agar_512": "w"},
    }
    new = {
        "strategies": {"agar/plain": {"read": "a"}, "agar/late": {"read": "b"},
                       "agar/moved": {"read": "C"}, "agar/new": {"read": "n"}},
        "engine": {"clean": "e", "faulted_hedged": "F"},
        "wire": {"agar_512": "w"},
    }
    merged = freeze.merge_provenance(old, new, "head")
    assert merged["generated_at_commit"] == "base"
    assert merged["added_at_commit"] == {"agar/late": "late", "agar/new": "head"}
    assert merged["regenerated_at_commit"] == {
        "engine/clean": "earlier", "agar/moved": "head",
        "engine/faulted_hedged": "head"}
    assert {key: merged[key] for key in ("strategies", "engine", "wire")} == new
    unchanged = freeze.merge_provenance(GOLDEN, GOLDEN, "head")
    assert unchanged == GOLDEN
