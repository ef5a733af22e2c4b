"""Source hygiene: no module of the package imports a name it never uses,
nor a private name of another package module, every private helper it
defines is used by package code, every public name it defines has a
caller, and every optional parameter of a public function or method a
call that sets it, or a stated reason to stay."""

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


def private_imports(source):
    """The private names that `source` takes from another package module:
    imported by a relative or `pradical` import, or read as an attribute
    of a package module that `from . import` binds."""
    tree = ast.parse(source)
    found, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "pradical"):
            for alias in node.names:
                if _is_private(alias.name):
                    found.add(alias.name)
                elif node.module in (None, "pradical"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add(node.value.id + "." + node.attr)
    return sorted(found)


def test_checker_flags_a_private_import():
    source = ("from __future__ import annotations\n"
              "from os.path import _get_sep\n"
              "from .hopf import HopfAlgebra, _dense as dense\n"
              "from . import gallery, _util\n"
              "from pradical.lie import _walk\n"
              "def f(x): return gallery._split_args, gallery.resolve, x._y\n")
    assert private_imports(source) == ["_dense", "_util", "_walk",
                                       "gallery._split_args"]


@pytest.mark.parametrize("name", MODULES + ["__init__.py"])
def test_module_imports_no_private_name(name):
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert private_imports(source) == []


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


def _optional_parameters(node, method):
    """(position, name) of each optional parameter of a function or method
    definition, position None for a keyword-only one.  A method's position
    counts from the argument after self (or cls), as a call passes it."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, default in zip(args.kwonlyargs,
                                                 args.kw_defaults)
            if default is not None]
    return out


def _calls(tree):
    """(called name, positional count, keywords, spread) for each call in
    `tree`: the name is the function's bare name or the called attribute,
    and spread is whether a *args or **kwargs argument may set anything."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", None))
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            spread = (any(isinstance(a, ast.Starred) for a in node.args)
                      or len(keywords) < len(node.keywords))
            yield name, len(node.args), keywords, spread


def unset_optional_parameters(package, callers):
    """The optional parameters, as "<qualified name>(<parameter>=)", of
    the public functions and methods of `package` ({module: source}) that
    no call in the package or in `callers` sets, by keyword or by
    position.  A call names a function or method by its bare name or an
    attribute of that name, and a class's `__init__` by the class name or
    `__init__`; a call that spreads *args or **kwargs sets them all."""
    defined = []
    for module, source in package.items():
        for cls, name, node in _units(ast.parse(source)):
            if (not isinstance(node, _FUNCTIONS) or _is_private(cls or "")
                    or (_is_private(name) and name != "__init__")):
                continue
            called = cls if name == "__init__" else name
            for position, parameter in _optional_parameters(node,
                                                            cls is not None):
                defined.append(("%s(%s=)" % (".".join(filter(
                    None, (module, cls, name))), parameter),
                    {called, name}, position, parameter))
    calls = [call for source in list(package.values()) + list(callers)
             for call in _calls(ast.parse(source))]
    return sorted(
        qualified for qualified, names, position, parameter in defined
        if not any(called in names and (
            spread or parameter in keywords
            or (position is not None and position < count))
            for called, count, keywords, spread in calls))


def test_checker_flags_an_unset_optional_parameter():
    package = {
        "a": ("def f(x, by_position=0, by_keyword=1, unset=2, *, kw=3):\n"
              "    return x\n"
              "def spread(x, y=0): return x\n"
              "def _private(x, y=0): return x\n"
              "class C:\n"
              "    def __init__(self, x, label=None): pass\n"
              "    def m(self, y=0, z=1): return f(1, 2, by_keyword=3)\n"
              "    @staticmethod\n"
              "    def s(y=0): return C(1).m(5)\n"),
        "b": ("def g(args): return spread(*args), C.s(), C(1, 'x')\n"),
    }
    assert unset_optional_parameters(package, []) == [
        "a.C.m(z=)", "a.C.s(y=)", "a.f(kw=)", "a.f(unset=)"]
    callers = ["import a\na.f(0, 1, 2, 3, kw=4)\nC.s(1)\n"]
    assert unset_optional_parameters(package, callers) == ["a.C.m(z=)"]


# optional parameters kept although no call in the package, scripts/ or
# perfbench/ sets them, each for the reason given
ALLOWED_UNSET = {
    "textio.print_algebra(rep=)":
        "the printer's half of the REP round trip",
    "fields.base_change_map(m=)":
        "the inseparable maps t -> s^(p^m) of the paper-G tests",
}


def test_every_optional_parameter_is_set():
    package = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    callers = [path.read_text(encoding="utf-8")
               for folder in ("scripts", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    unset = unset_optional_parameters(package, callers)
    # an entry whose parameter gained a caller is stale and must go
    assert set(ALLOWED_UNSET) <= set(unset)
    assert [q for q in unset if q not in ALLOWED_UNSET] == []
