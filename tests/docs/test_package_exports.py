"""Every name a ``repro`` package exports in ``__all__`` exists, once.

A name left in ``__all__`` after its definition is gone breaks
``from repro.<package> import *``; a repeated one hides a merge slip.
"""

import importlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
PACKAGES = sorted(
    ".".join(path.parent.relative_to(PACKAGE.parent).parts)
    for path in PACKAGE.rglob("__init__.py"))


def test_every_package_is_found():
    assert "repro" in PACKAGES and "repro.erasure" in PACKAGES


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves_once(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", [])
    assert [symbol for symbol in exported if not hasattr(package, symbol)] == []
    assert len(exported) == len(set(exported))
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
