"""The promise of ``tests/reference``, checked by reading imports.

Nothing under ``src/repro`` may import an oracle (a shipped module that needs
``reference`` or ``tests`` would break every installation), and every oracle
must still be imported by some test module, so a fixture whose comparison was
deleted cannot linger as dead code.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = TESTS.parent / "src" / "repro"
REFERENCE = TESTS / "reference"


def imported_modules(path: pathlib.Path) -> set[str]:
    """Every absolute module name ``path`` imports, and every ``from`` name."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def fixture_modules() -> list[str]:
    return sorted(path.stem for path in REFERENCE.glob("*.py")
                  if path.stem != "__init__")


def test_the_known_fixtures_are_found():
    assert {"closed_loop", "codec", "heap_scheduler", "knapsack",
            "resilient_compose"} <= set(fixture_modules())


def test_no_shipped_module_imports_a_fixture():
    offenders = sorted(
        (str(path.relative_to(PACKAGE)), name)
        for path in PACKAGE.rglob("*.py")
        for name in imported_modules(path)
        if name.split(".")[0] in ("reference", "tests")
    )
    assert offenders == []


@pytest.mark.parametrize("fixture", fixture_modules())
def test_every_fixture_is_imported_by_a_test(fixture):
    wanted = {f"reference.{fixture}", f"tests.reference.{fixture}"}
    importers = [path for path in TESTS.rglob("*.py")
                 if REFERENCE not in path.parents
                 and wanted & imported_modules(path)]
    assert importers, f"tests/reference/{fixture}.py has no importer"
