"""Package hygiene: every public function in the package, and every defaulted
parameter of one, has a use there."""

import ast
from collections import Counter
from pathlib import Path

import quatrefl

SRC = Path(quatrefl.__file__).parent

# Public without a caller in the package, on purpose: the paper's closed
# forms, checked against explicit construction
ALLOWED = {"lambda_count_formula", "omega_count_formula", "cohen_covered_indices"}


def _names(node) -> Counter:
    return Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))


def _public_functions():
    """(exported names, names used in the modules, the public functions of
    each module: module name -> name -> uses inside the function itself)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees.pop("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
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
