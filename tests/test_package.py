"""Package hygiene: every public function in the package has a use there."""

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


def test_allowed_names_are_defined_and_still_unused():
    # an entry that is gone, exported or called in the package no longer needs to be allowed
    exported, used, functions = _public_functions()
    defined = {name: own for names in functions.values() for name, own in names.items()}
    assert ALLOWED <= defined.keys()
    assert [name for name in sorted(ALLOWED)
            if used[name] != defined[name] or name in exported] == []
