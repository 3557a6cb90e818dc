"""``mincodes.__all__`` lists exactly the public names the package binds,
``build_field`` is the one way to a field, and ``errors._spend`` the one
way to ``BudgetExceeded``."""

import ast
from pathlib import Path

import mincodes
from mincodes import (cf_code, cg_code, extended, first, lift, random_code,
                      second, tensor_product, weight_s)

INIT = Path(__file__).resolve().parents[1] / "src" / "mincodes" / "__init__.py"


def bound_names() -> list[str]:
    """Each public name that an import in ``__init__.py`` binds."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if not (alias.asname or alias.name).startswith("_")]


def test_all_lists_each_bound_public_name_once():
    assert len(mincodes.__all__) == len(set(mincodes.__all__))
    assert set(mincodes.__all__) == set(bound_names())


def test_every_export_resolves():
    namespace = {}
    exec("from mincodes import *", namespace)
    assert all(name in namespace for name in mincodes.__all__)


def test_build_field_is_the_only_way_to_a_field():
    assert "GF" not in mincodes.__all__
    assert not hasattr(mincodes, "GF")
    base = extended(3, 3)
    codes = [first(3, 4), second(4, 3, 4), weight_s(2, 4, 4),
             extended(3, 8), cf_code(4, 2, 9, (1, 2)), cg_code(2, 2, 4),
             lift(base, 1), tensor_product(first(2, 3), base),
             random_code(6, 3, 5, seed=1)]
    for code in codes:
        assert code.field is mincodes.build_field(code.q)


def calls(tree, name: str) -> int:
    """How many calls of ``name``, bare or as an attribute, the tree holds."""
    return sum(isinstance(node, ast.Call)
               and name in (getattr(node.func, "id", None),
                            getattr(node.func, "attr", None))
               for node in ast.walk(tree))


def call_counts(name: str, module: str, function: str) -> tuple[int, int]:
    """Calls of ``name`` in the package's source, and in ``function`` of
    ``module``."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in INIT.parent.glob("*.py")}
    owner = next(node for node in trees[module].body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == function)
    return sum(calls(tree, name) for tree in trees.values()), \
        calls(owner, name)


def test_only_the_canonical_field_constructs_gf():
    assert call_counts("GF", "field.py", "_canonical_field") == (1, 1)


def test_only_the_budget_gate_raises_budget_exceeded():
    assert call_counts("BudgetExceeded", "errors.py", "_spend") == (1, 1)
