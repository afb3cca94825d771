"""Golden outcomes of the reconfiguration path, frozen at the commit named in the file.

``tests/golden/reconfig.json`` was produced by
``tests/golden/freeze_reconfig.py`` before the solver learned to prune its
relaxation scans and the cache manager to stamp options from per-placement
ladders; reproducing it pins every decision — candidate set, option counts,
the installed ``(key, weight)`` list in order, the winning value to the last
bit — under every solver setting.  A legitimate behaviour change regenerates
the file in its own commit (``--force``), never alongside an optimisation.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.extensions.collaboration import reconfigure_node

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

_spec = importlib.util.spec_from_file_location(
    "freeze_reconfig", GOLDEN_DIR / "freeze_reconfig.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

GOLDEN = json.loads((GOLDEN_DIR / "reconfig.json").read_text())


def test_golden_file_covers_every_case():
    assert sorted(set(GOLDEN) - {"generated_at_commit"}) == sorted(
        freeze.case_name(*case) for case in freeze.cases())


@pytest.mark.parametrize("case", freeze.cases(),
                         ids=[freeze.case_name(*case) for case in freeze.cases()])
def test_case_reproduces(case):
    # Through JSON, as the file was: tuples become lists on both sides.
    assert json.loads(json.dumps(freeze.run_case(*case))) == \
        GOLDEN[freeze.case_name(*case)]


def test_relaxation_decides_the_heterogeneous_cases():
    """The explicit placement is there because relax changes its outcome."""
    for seed in freeze.SEEDS:
        with_relax = GOLDEN[freeze.case_name(seed, "explicit", "healthy", True, None)]
        without = GOLDEN[freeze.case_name(seed, "explicit", "healthy", False, None)]
        assert with_relax != without


def test_relaxation_still_fires_on_the_heterogeneous_instance():
    """The prune skips hopeless scans, not the ones that improve a state."""
    seed = freeze.SEEDS[0]
    node = freeze.build_node(seed, "explicit", True, None)
    freeze.feed_period(node, seed, 0)
    record = node.reconfigure(30.0)
    assert record.relax_improved > 0
    assert record.relax_pruned > record.relax_scans > record.relax_improved


@pytest.mark.parametrize("use_relax,stop", [(True, 25), (False, None), (True, 0)])
@pytest.mark.parametrize("placement", freeze.PLACEMENTS)
def test_collaborative_round_honours_the_nodes_settings_and_is_recorded(
        placement, use_relax, stop):
    """``reconfigure_node`` = the spelled-out §VI round of the golden file."""
    seed = freeze.SEEDS[0]
    node = freeze.build_node(seed, placement, use_relax, stop)
    freeze.feed_period(node, seed, 0)
    node.reconfigure(30.0)
    neighbours = [freeze.neighbour_of(node)]
    freeze.feed_period(node, seed, 1)
    configured = reconfigure_node(node, neighbours, freeze.NEIGHBOR_READ_MS)

    expected = GOLDEN[freeze.case_name(seed, placement, "collab", use_relax, stop)][1]
    record = node.reconfiguration_history()[-1]
    assert configured == record.configured_chunks
    assert json.loads(json.dumps(freeze.entry_of(
        {name: getattr(record, name) for name in freeze.RECORD_FIELDS},
        node.current_configuration))) == expected
