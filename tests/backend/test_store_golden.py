"""What the object store holds and serves, frozen at the commit named in the file.

``tests/golden/store_contents.json`` was produced by
``tests/golden/freeze_store.py``: per shape (the 300 × 1 MiB virtual working
set, 16 KiB and 1 / 7 / 1,001-byte payloads, spread placement, a re-put at
version 1, a delete) one SHA-256 over every chunk, the placement views,
``describe()`` and ``get_object`` in both chunk orders.  A change to how the
store keeps its objects must reproduce every digest; a change that moves one
on purpose regenerates the file (``--force``) and says why.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

_spec = importlib.util.spec_from_file_location(
    "freeze_store", GOLDEN_DIR / "freeze_store.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

GOLDEN = json.loads((GOLDEN_DIR / "store_contents.json").read_text())


def test_golden_file_covers_every_shape():
    assert sorted(GOLDEN["shapes"]) == sorted(freeze.SHAPES)


@pytest.mark.parametrize("name", sorted(freeze.SHAPES))
def test_shape_reproduces(name):
    assert freeze.shape_digest(name) == GOLDEN["shapes"][name]
