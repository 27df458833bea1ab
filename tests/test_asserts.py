"""Check hygiene: the package holds no ``assert`` statement.

``python -O`` strips assert statements, so a check written as one is gone
under it; every check in the package raises instead.  No linter is a
dependency, so this AST scan stands in for one, as in ``test_imports.py``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rainbowconn"


def assert_lines(source: str) -> list[int]:
    """Line of each assert statement in the module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_scan_finds_asserts():
    src = "def f(x):\n    assert x\n    return x\n\n\nassert f(1), 'one'\n"
    assert assert_lines(src) == [2, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_asserts(path):
    assert assert_lines(path.read_text()) == []
