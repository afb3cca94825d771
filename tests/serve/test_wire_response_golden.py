"""Golden digests of the gateway's responses, frozen at the commit in the file.

``tests/golden/wire_responses.json`` was produced by
``tests/golden/freeze_wire_responses.py`` before responses became fragments
joined once per batch and decision heads were rendered once per pattern;
replaying it pins every response — status line, framing block, decision
headers in their order, body — byte for byte *across versions*.  A legitimate
wire-format change regenerates the file in its own commit (``--force``),
never alongside an optimisation.
"""

import asyncio
import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

_spec = importlib.util.spec_from_file_location(
    "freeze_wire_responses", GOLDEN_DIR / "freeze_wire_responses.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

GOLDEN = json.loads((GOLDEN_DIR / "wire_responses.json").read_text())

SCENARIOS = {name: rest for name, *rest in freeze.scenarios()}


def test_golden_file_covers_every_scenario():
    assert GOLDEN["generated_at_commit"].startswith("7a55248")
    assert list(GOLDEN)[1:] == list(SCENARIOS)
    for name, (_, _, steps) in SCENARIOS.items():
        assert list(GOLDEN[name]) == [label for label, _ in steps]
    freeze.check_coverage({name: GOLDEN[name] for name in SCENARIOS})


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_replays_byte_for_byte(name):
    config, payloads, steps = SCENARIOS[name]
    replayed = asyncio.run(freeze.run_scenario(config, payloads, steps))
    for label, _ in steps:
        assert replayed[label] == GOLDEN[name][label], label
