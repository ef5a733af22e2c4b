"""Source hygiene: no module of the package imports a name it never uses."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pradical"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names an import in `source` binds and no other line reads;
    `from __future__` imports are directives, not bindings."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .linalg import rref as _rref, nullspace\n"
              "def f(): return os.sep, nullspace\n")
    assert unused_imports(source) == ["_rref"]


def test_the_package_has_modules():
    assert {"lie.py", "hopf.py", "linalg.py"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert unused_imports(source) == []
