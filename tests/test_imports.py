"""Import hygiene: every name a module imports is used in it, in the
package, the tests, the demos and the benchmark scripts.

No linter is a dependency, so this AST scan stands in for one.  A name
counts as used when it appears as a name anywhere in the module (attribute
roots included) or is re-exported through ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rainbowconn"
SCANNED = [path for folder in (SRC, ROOT / "tests", ROOT / "demos", ROOT / "perfbench")
           for path in sorted(folder.glob("*.py"))]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    src = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
           "from a import b, c as d\nfrom e import f\n__all__ = ['f']\nnp.zeros(d)\n")
    assert unused_imports(src) == [(2, "os"), (4, "b")]


def scan_id(path: Path) -> str:
    """A package module by its file name, any other by its folder and name."""
    return path.name if path.parent == SRC else f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("path", SCANNED, ids=scan_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
