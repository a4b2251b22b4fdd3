"""Every name a module of the package or of its tests imports is used in
that module."""

import ast
from pathlib import Path

import pytest

import algcheck

MODULES = sorted(p for p in Path(algcheck.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import and never read, nor listed in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from .linalg import basis_vector, vector\n"
              "import os.path\n"
              "__all__ = ['exported']\n"
              "from .x import exported\n"
              "def f():\n    return vector(())\n")
    assert unused_imports(source) == [(1, "basis_vector"), (2, "os")]
