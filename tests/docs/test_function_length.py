"""No function in ``src/repro`` is longer than ``MAX_LINES`` lines.

A function that long mixes steps that want names of their own: the lane
scheduler's construction and run loop were split into named phases to get
under it.  A function is counted from its ``def`` line to its last line,
docstring and comments included, decorators excluded.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
MAX_LINES = 150


def function_lengths(source: str) -> list[tuple[str, int]]:
    """``(name, lines)`` of every function and method in ``source``."""
    return [(node.name, node.end_lineno - node.lineno + 1)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_no_function_is_longer_than_the_limit():
    too_long = [(str(path.relative_to(ROOT)), name, lines)
                for path in sorted(ROOT.rglob("*.py"))
                for name, lines in function_lengths(path.read_text())
                if lines > MAX_LINES]
    assert too_long == []


def test_the_count_runs_from_def_to_the_last_line():
    source = '''
@decorator
def outer():
    """Doc."""

    def inner():
        return 1
    return inner
'''
    assert function_lengths(source) == [("outer", 6), ("inner", 2)]
