"""No module of the package uses an assert statement.

`python -O` strips assert statements, so an invariant written as one would
go unchecked there; the package raises its own errors instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "idtest"
MODULES = sorted(SRC.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    """Line numbers of the assert statements in source."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    )


def test_scan_finds_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\n"
    assert assert_lines(source) == [3]


def test_scan_ignores_the_word():
    assert assert_lines("# assert x\ns = 'assert y'\nassert_ok = 1\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text()) == []
