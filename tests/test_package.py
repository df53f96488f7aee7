"""Package hygiene: every public function in the package has a use there."""

import ast
from collections import Counter
from pathlib import Path

import quatrefl

SRC = Path(quatrefl.__file__).parent

# Public without a caller in the package, on purpose:
ALLOWED = {
    # the paper's closed forms, checked against explicit construction
    "lambda_count_formula", "omega_count_formula", "cohen_covered_indices",
    # named in perfbench/tracer.py's COUNT_ONLY, which counts their calls
    "model_inv", "mat_mul", "rank_n_mul",
}


def _names(node) -> Counter:
    return Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))


def test_every_public_function_is_used_or_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees.pop("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    and used[node.name] == _names(node)[node.name]
                    and node.name not in exported and node.name not in ALLOWED):
                unused.append(f"{module}.{node.name}")
    assert unused == []
