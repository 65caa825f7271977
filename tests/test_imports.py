"""Every module of the package uses each name it imports, and every
module-level private name of the package is read by some module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "idtest"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == [
        "os (line 1)"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def private_names(source: str) -> set[str]:
    """Module-level names of the form _foo (not dunders) a module binds."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def unread_private_names(sources: list[str]) -> list[str]:
    """Private names some module binds and no module reads, by name or as
    an attribute (module._foo)."""
    defined, read = set(), set()
    for source in sources:
        defined |= private_names(source)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


def test_scan_finds_an_unread_private_name():
    helpers = (
        "_A = 1\n"
        "_B: int = 2\n"
        "def _used():\n    return _A\n"
        "class _Left:\n    pass\n"
    )
    caller = "import m\nm._used()\n__all__ = []\n"
    assert unread_private_names([helpers, caller]) == ["_B", "_Left"]


def test_every_private_name_is_read():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == []
