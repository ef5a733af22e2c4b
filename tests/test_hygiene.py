"""Source hygiene: no module of the package imports a name it never uses,
every private helper it defines is used by package code, and every public
name it defines has a caller or a stated reason to stay."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pradical"
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _units(tree):
    """(class, name, node) for each top-level function (class None) and
    each method, and (class, None, node) for the rest of a class body or
    (None, None, node) of a module's top-level code."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body + node.decorator_list + node.bases:
                name = item.name if isinstance(item, _FUNCTIONS) else None
                yield node.name, name, item
        elif isinstance(node, _FUNCTIONS):
            yield None, node.name, node
        else:
            yield None, None, node


def _reads(node, strings=False):
    """(names, attributes) that `node` reads.  names holds its bare names,
    each `<owner>.<attr>` read as "owner.attr", and with `strings` its
    identifier string constants, as in a table of attributes to bind;
    attributes holds the attribute of every `x.attr` read."""
    names, attributes = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attributes.add(n.attr)
            owner = n.value
            owner = (owner.id if isinstance(owner, ast.Name)
                     else getattr(owner, "attr", None))
            if owner is not None:
                names.add(owner + "." + n.attr)
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str) and n.value.isidentifier()):
            names.add(n.value)
    return names, attributes


def unused_private_helpers(sources):
    """Private top-level functions and private methods defined in
    `sources` that no other function, method or top-level code of them
    names; a helper that only calls itself is unused."""
    defined, used = set(), set()
    for source in sources:
        for _, name, node in _units(ast.parse(source)):
            if name is not None and _is_private(name):
                defined.add(name)
            used |= set().union(*_reads(node)) - {name}
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


# public names kept although package code, scripts/ and perfbench/ need
# not name them, each for the reason given
ALLOWED_UNCALLED = {
    "lie.RLieAlgebra.generic_p_power":
        "test_lie's symbolic reference for p_power",
    "fields.PolynomialRing.evaluate":
        "evaluates generic_p_power in test_lie's p_power reference",
    "hopf.SCAlgebra.right_tensor_subspace":
        "the subspace reference for in_right_tensor",
    "hopf.tensor_intersection_identity": "acceptance criterion 08",
    "survey.unipotent_restricted_subalgebras": "acceptance criterion 06",
    "hopf.is_unipotent_subgroup":
        "the Hopf-side Rad_u test (ROADMAP item 4)",
}


def _public_defs_and_reads(module, source, strings=False):
    """({qualified name: (name, is a method)} of the public top-level
    functions, classes and methods of `source`, and the names and
    attributes its code reads, as `_reads` gives them).  A function or
    method does not read itself, nor a class's body the class."""
    defined, names, attributes = {}, set(), set()
    for cls, name, node in _units(ast.parse(source)):
        for qualified, public, method in (((module, cls), cls, False),
                                          ((module, cls, name), name,
                                           cls is not None)):
            if public is not None and not public.startswith("_"):
                defined[".".join(filter(None, qualified))] = public, method
        node_names, node_attributes = _reads(node, strings)
        names |= node_names - {cls, name}
        attributes |= node_attributes - {cls, name}
    return defined, names, attributes


def uncalled_public_names(package, callers):
    """The qualified public names defined in `package` ({module: source})
    that neither other package code nor a source of `callers` reads; the
    string names of the callers count.  A method is read by any read of
    its name, attributes included; a top-level function or class only by
    its bare name or as `<module>.<name>`, not as an attribute of any other
    object, which can be a method of the same name."""
    defined, names, attributes = {}, set(), set()
    for module, source in package.items():
        found, node_names, node_attributes = _public_defs_and_reads(module,
                                                                     source)
        defined.update(found)
        names |= node_names
        attributes |= node_attributes
    for source in callers:
        _, node_names, node_attributes = _public_defs_and_reads(
            "", source, strings=True)
        names |= node_names
        attributes |= node_attributes
    return sorted(q for q, (name, method) in defined.items()
                  if name not in names
                  and (name not in attributes if method else q not in names))


def test_checker_flags_an_uncalled_public_name():
    package = {
        "a": ("def used(): return 0\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def bound(): return 0\n"
              "def hidden(): return 0\n"
              "def qualified(): return 0\n"
              "class C:\n"
              "    def live(self): return used()\n"
              "    def dead(self): return self.dead\n"
              "    def _private(self): return C\n"),
        "b": ("import a\n"
              "def caller(F): return C().live(), F.hidden(), a.qualified()\n"),
    }
    callers = ["import a\nTABLE = ((a, 'bound'),)\n"]
    assert uncalled_public_names(package, callers) == [
        "a.C.dead", "a.hidden", "a.recursive", "b.caller"]
    assert uncalled_public_names(package, []) == [
        "a.C.dead", "a.bound", "a.hidden", "a.recursive", "b.caller"]


def test_every_public_name_has_a_caller():
    package = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    callers = [path.read_text(encoding="utf-8")
               for folder in ("scripts", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    names = set().union(*(_public_defs_and_reads(module, source)[0]
                          for module, source in package.items()))
    uncalled = uncalled_public_names(package, callers)
    assert len(ALLOWED_UNCALLED) <= 10
    assert set(ALLOWED_UNCALLED) <= names
    # an entry whose name gained a caller is stale and must go
    assert set(ALLOWED_UNCALLED) <= set(uncalled)
    assert [q for q in uncalled if q not in ALLOWED_UNCALLED] == []
