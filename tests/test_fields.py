"""Field hygiene: every field of a package dataclass is read somewhere.

A field that is written but never read is state nothing uses, and it tends
to restate a fact another field already holds.  This AST scan counts a field
as read when its name appears as a loaded attribute (``obj.name``) in the
package, the tests, the demos or the benchmark.  The two experiment
dataclasses are exempt: their fields are read through ``dataclasses.fields``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rainbowconn"
READERS = ("src", "tests", "demos", "perfbench")
EXEMPT = {"ExperimentConfig", "ExperimentRecord"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def dataclass_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of each dataclass in the module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    out.append((node.name, stmt.target.id))
    return out


def loaded_attributes(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(modules: list[str], readers: list[str]) -> list[tuple[str, str]]:
    read: set[str] = set()
    for source in readers:
        read |= loaded_attributes(source)
    return sorted((cls, name) for source in modules
                  for cls, name in dataclass_fields(source)
                  if cls not in EXEMPT and name not in read)


def test_scan_finds_unread_fields():
    src = ("from dataclasses import dataclass, field\n"
           "@dataclass(frozen=True)\nclass A:\n    a: int\n    b: int = 0\n"
           "@dataclass\nclass B:\n    c: int\n    def f(self):\n        self.c = 1\n"
           "class C:\n    d: int\n"
           "def use(x):\n    return x.a\n")
    assert unread_fields([src], [src]) == [("A", "b"), ("B", "c")]


def test_no_unread_dataclass_fields():
    modules = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    readers = [p.read_text() for d in READERS for p in sorted((ROOT / d).rglob("*.py"))]
    assert unread_fields(modules, readers) == []
