"""Package hygiene: every public function and method in the package, and every
defaulted parameter of a function, has a use there; only a class's ``__init__`` calls
``object.__setattr__``; the package and each command load only the modules they need."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import quatrefl

SRC = Path(quatrefl.__file__).parent

# Public without a caller in the package, on purpose: the paper's closed
# forms, checked against explicit construction
ALLOWED = {"lambda_count_formula", "omega_count_formula", "cohen_covered_indices"}


def _names(node) -> Counter:
    return Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))


def _exports(tree) -> dict[str, str]:
    """The package's exported name -> module map, read from ``__init__``."""
    [node] = [node for node in tree.body if isinstance(node, ast.Assign)
              and [t.id for t in node.targets] == ["_EXPORTS"]]
    return ast.literal_eval(node.value)


def _public_functions():
    """(exported names, names used in the modules, the public functions of
    each module: module name -> name -> uses inside the function itself)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = set(_exports(trees.pop("__init__")))
    used = sum((_names(tree) for tree in trees.values()), Counter())
    functions = {module: {node.name: _names(node)[node.name] for node in tree.body
                          if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
                 for module, tree in trees.items()}
    return exported, used, functions


def test_every_public_function_is_used_or_exported():
    exported, used, functions = _public_functions()
    unused = [f"{module}.{name}" for module, names in functions.items()
              for name, own in names.items()
              if used[name] == own and name not in exported and name not in ALLOWED]
    assert unused == []


# Public methods without a caller in the package, on purpose: scalar and
# quaternion API that the tests use as oracles
METHODS_ALLOWED = {"FieldScalar.coeffs", "FieldScalar.from_fractions", "Quaternion.conjugate",
                   "Quaternion.norm"}


def _attributes(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _unused_public_methods() -> list[str]:
    """Class.method for each public method or property of a module's classes
    whose name no attribute access in the package reads, outside the method
    itself (a method is matched by its name alone)."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = sum((_attributes(tree) for tree in trees), Counter())
    return sorted(f"{cls.name}.{fn.name}" for tree in trees for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for fn in cls.body
                  if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                  and used[fn.name] == _attributes(fn)[fn.name])


def test_every_public_method_is_used():
    # an allowed method that is gone or now called fails here too
    assert _unused_public_methods() == sorted(METHODS_ALLOWED)


# Public attributes that ``__init__`` sets and the package never reads, on
# purpose: the group an exception's handler may inspect
ATTRIBUTES_ALLOWED = {"NonGeneratingSeedError.generated"}


def _init_attributes(init: ast.FunctionDef) -> set[str]:
    """The attributes ``__init__`` sets on self: by assignment to ``self.name``
    or by ``object.__setattr__(self, "name", ...)``."""
    names = set()
    for node in ast.walk(init):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and getattr(node.value, "id", None) == "self":
            names.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__setattr__" \
                and getattr(node.func.value, "id", None) == "object":
            names.add(ast.literal_eval(node.args[1]))
    return names


def _unread_public_attributes() -> list[str]:
    """Class.attribute for each public attribute a class's ``__init__`` sets
    whose name no attribute read in the package loads (matched by name alone)."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{cls.name}.{name}" for tree in trees for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for init in cls.body
                  if isinstance(init, ast.FunctionDef) and init.name == "__init__"
                  for name in _init_attributes(init) if not name.startswith("_") and name not in read)


def test_every_public_attribute_set_in_init_is_read():
    # state that nothing reads restates what another map already holds; an
    # allowed attribute that is gone or now read fails here too
    assert _unread_public_attributes() == sorted(ATTRIBUTES_ALLOWED)


# Private names that one module imports from another, by defining module: the
# shared walks of ``groups``
PRIVATE_IMPORTS = {
    "groups": {"_automorphism_search", "_closure", "_extend_map", "_generate", "_orbits",
               "_quotient_search"},
}


def _private_imports() -> dict[str, set[str]]:
    """The private names each module's ``from .module import`` statements take."""
    out: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                names = {alias.name for alias in node.names if alias.name.startswith("_")}
                if names:
                    out.setdefault(node.module, set()).update(names)
    return out


def test_no_new_private_name_crosses_a_module_boundary():
    # a private helper that another module needs is either part of a shared
    # walk, listed here, or belongs on a public object (as H's coset table)
    assert _private_imports() == PRIVATE_IMPORTS


# Defaulted parameters that no call in the package passes, on purpose: the
# command line's arguments, which only the entry point's caller supplies
UNSET_ALLOWED = {"cli.main.argv"}


def _unset_defaulted_parameters() -> list[str]:
    """Defaulted parameters of the modules' public functions that no call in
    the package passes, by position or by keyword, as module.function.param."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for index, param in defaulted:
                passed = any(
                    any(kw.arg in (param, None) for kw in call.keywords)
                    or (index is not None
                        and (len(call.args) > index
                             or any(isinstance(a, ast.Starred) for a in call.args)))
                    for call in calls.get(fn.name, []))
                if not passed:
                    unset.append(f"{module}.{fn.name}.{param}")
    return unset


def test_every_defaulted_parameter_is_passed_somewhere():
    # a parameter that only tests set doubles the configurations to cover
    unset = _unset_defaulted_parameters()
    assert [name for name in unset if name not in UNSET_ALLOWED] == []
    assert UNSET_ALLOWED <= set(unset)


def test_allowed_names_are_defined_and_still_unused():
    # an entry that is gone, exported or called in the package no longer needs to be allowed
    exported, used, functions = _public_functions()
    defined = {name: own for names in functions.values() for name, own in names.items()}
    assert ALLOWED <= defined.keys()
    assert [name for name in sorted(ALLOWED)
            if used[name] != defined[name] or name in exported] == []


def test_exports_are_the_41_names_their_modules_define():
    exports = _exports(ast.parse((SRC / "__init__.py").read_text()))
    assert len(exports) == 41
    assert quatrefl.__all__ == list(exports)
    for name, module in exports.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert name in {node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}, name


def test_exports_resolve_to_their_modules_objects():
    exports = _exports(ast.parse((SRC / "__init__.py").read_text()))
    for name, module in exports.items():
        assert getattr(quatrefl, name) is getattr(importlib.import_module(f"quatrefl.{module}"), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(quatrefl, "no_such_name")
    assert not hasattr(quatrefl, "default_max_order")  # public in numutil, not exported


def _object_setattr_scopes() -> list[tuple[tuple[str, str], ...]]:
    """The scope of each call of ``object.__setattr__`` in the package, outermost
    first: the module, then each enclosing class or function, as (kind, name)."""
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (("class", child.name),))
            elif isinstance(child, ast.FunctionDef):
                visit(child, scope + (("def", child.name),))
            else:
                func = getattr(child, "func", None)
                if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                        and func.attr == "__setattr__" and getattr(func.value, "id", None) == "object"):
                    scopes.append(scope)
                visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), (("module", path.stem),))
    return scopes


def test_object_setattr_is_called_only_in_a_class_init():
    # an immutable class sets each slot once, as it is built: no slot is
    # filled later, and no other code writes into an object it does not own
    scopes = _object_setattr_scopes()
    assert [scope for scope in scopes
            if scope[-1] != ("def", "__init__") or scope[-2][0] != "class"] == []
    assert {scope[-2][1] for scope in scopes} == {"Subgroup", "ReflectionSystem"}


# The quatrefl modules a fresh process has loaded after `import quatrefl.cli`
# and then after running each command (its stdout discarded), and whether
# the command loaded dataclasses
_LOADED = """
import contextlib, io, json, sys
import quatrefl.cli
loaded = lambda: sorted(m for m in sys.modules if m.startswith("quatrefl"))
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = quatrefl.cli.main(sys.argv[1:])
print(json.dumps([after_import, loaded(), code, "dataclasses" in sys.modules]))
"""

INDICES = ["quatrefl", "quatrefl.cli", "quatrefl.indices", "quatrefl.numutil"]
GROUP = ["quatrefl", "quatrefl.cli", "quatrefl.exactarith", "quatrefl.groups", "quatrefl.numutil"]
SYSTEMS = sorted(GROUP + ["quatrefl.refsystems"])
CLASSIFY = sorted(SYSTEMS + ["quatrefl.classify", "quatrefl.indices", "quatrefl.refgroups"])
VERIFY = sorted(CLASSIFY + ["quatrefl.data", "quatrefl.golden"])  # data: the fixtures


@pytest.mark.parametrize("argv, modules", [
    pytest.param(["group", "--k", "T"], GROUP, id="group"),
    pytest.param(["group", "--k", "dicyclic", "--n", "3", "--emit", "cayley"], GROUP,
                 id="group-cayley"),
    pytest.param(["group", "--k", "dicyclic", "--n", "200"],
                 [m for m in GROUP if m != "quatrefl.exactarith"], id="group-summary"),
    pytest.param(["systems", "--k", "T"], SYSTEMS, id="systems"),
    pytest.param(["classify", "--k", "T"], CLASSIFY, id="classify"),
    pytest.param(["classify", "--index", "6,1,3,4"], INDICES, id="classify-index"),
    pytest.param(["iso-search", "--max-n", "100", "--type", "ii"], INDICES, id="iso-search"),
    pytest.param(["verify", "--suite", "missing"], VERIFY, id="verify"),
])
def test_each_command_loads_only_its_layers(argv, modules):
    # the child imports quatrefl from this checkout's src, as the tests do
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.stderr == ""
    after_import, after_command, code, dataclasses = json.loads(result.stdout)
    assert after_import == ["quatrefl", "quatrefl.cli"]
    assert after_command == modules
    # only the layers above the systems layer define dataclasses
    assert dataclasses == ("quatrefl.classify" in modules)
    assert code == (1 if argv[0] == "verify" else 0)  # the missing suite's known divergence


def test_a_group_summary_imports_no_exact_arithmetic():
    # C_n and D_n without values: neither exactarith nor fractions is loaded
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    child = ("import sys, quatrefl.cli; quatrefl.cli.main(sys.argv[1:]); "
             "print([m for m in ('quatrefl.exactarith', 'fractions', 'decimal') if m in sys.modules])")
    for k in ("cyclic", "dicyclic"):
        result = subprocess.run([sys.executable, "-c", child, "group", "--k", k, "--n", "200"],
                                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert result.stderr == ""
        assert result.stdout.splitlines()[-1] == "[]"
