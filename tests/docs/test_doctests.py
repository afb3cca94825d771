"""Docstring examples run: every ``repro`` module with a ``>>>`` example passes
``doctest.testmod``, so an example cannot drift from what the code prints."""

import doctest
import importlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def modules_with_examples() -> list[str]:
    return sorted(
        ".".join(("repro",) + path.relative_to(PACKAGE).with_suffix("").parts)
        for path in PACKAGE.rglob("*.py") if ">>>" in path.read_text()
    )


def test_the_known_examples_are_found():
    assert {"repro.erasure.codec", "repro.erasure.reed_solomon",
            "repro.cache.chunk_cache", "repro.core.popularity",
            "repro.core.agar_node"} <= set(modules_with_examples())


@pytest.mark.parametrize("name", modules_with_examples())
def test_examples_pass(name):
    results = doctest.testmod(importlib.import_module(name))
    assert results.attempted and not results.failed, name
