"""Source hygiene: no module of the package imports a name it never uses,
and every private helper it defines is used by package code."""

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


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _units(tree):
    """(name, node) for each top-level function and each method, and
    (None, node) for the rest of a module's top-level code."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body + node.decorator_list + node.bases:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item
                else:
                    yield None, item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        else:
            yield None, node


def unused_private_helpers(sources):
    """Private top-level functions and private methods defined in
    `sources` that no other function, method or top-level code of them
    names; a helper that only calls itself is unused."""
    defined, used = set(), set()
    for source in sources:
        for name, node in _units(ast.parse(source)):
            if name is not None and _is_private(name):
                defined.add(name)
            refs = {n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute))}
            used.update(refs - {name})
    return sorted(defined - used)


def test_checker_flags_an_unused_private_helper():
    source = ("def _used(): return _recursive\n"
              "def _recursive(n): return _recursive(n - 1)\n"
              "def _dead(): return 0\n"
              "class C:\n"
              "    def __init__(self): self._live()\n"
              "    def _live(self): return _used()\n"
              "    def _unread(self): return self._unread\n")
    assert unused_private_helpers([source]) == ["_dead", "_unread"]


def test_package_uses_every_private_helper():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_helpers(sources) == []
