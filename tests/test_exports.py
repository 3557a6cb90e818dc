"""``mincodes.__all__`` lists exactly the public names the package binds,
``build_field`` is the one way to a field, ``errors._spend`` the one
way to ``BudgetExceeded``, ``GF.add`` and ``GF.sum`` the one way to a
field sum, and ``sweep.run_criterion`` the one way to run a criterion."""

import ast
from pathlib import Path

import numpy as np

import mincodes
from mincodes import codes, field
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


def sources() -> dict[str, ast.Module]:
    """The syntax tree of each module of the package, by file name."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in INIT.parent.glob("*.py")}


def calls(tree, name: str) -> int:
    """How many calls of ``name``, bare or as an attribute, the tree holds."""
    return sum(isinstance(node, ast.Call)
               and name in (getattr(node.func, "id", None),
                            getattr(node.func, "attr", None))
               for node in ast.walk(tree))


def call_counts(name: str, module: str, function: str) -> tuple[int, int]:
    """Calls of ``name`` in the package's source, and in ``function`` of
    ``module``."""
    trees = sources()
    owner = next(node for node in trees[module].body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == function)
    return sum(calls(tree, name) for tree in trees.values()), \
        calls(owner, name)


def test_only_the_canonical_field_constructs_gf():
    assert call_counts("GF", "field.py", "_canonical_field") == (1, 1)


def test_only_the_budget_gate_raises_budget_exceeded():
    assert call_counts("BudgetExceeded", "errors.py", "_spend") == (1, 1)


def test_only_the_dealer_enumeration_walks_every_word():
    # every other walk takes one word per scalar class; the dealings are
    # filled into one array by _dealings, for perfectness_batch alone
    assert call_counts("codeword_blocks", "sss.py", "_dealings") == (1, 1)
    assert call_counts("_dealings", "sss.py", "perfectness_batch") == (1, 1)


def test_reduced_rows_are_read_in_one_place():
    trees = sources()
    # the dealer imports no elimination: its decoders and dealing map come
    # from matrix._solve
    named = {getattr(node, "id", None) or getattr(node, "attr", None)
             or getattr(node, "name", None)
             for node in ast.walk(trees["sss.py"])
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert not named & {"_rref_array", "in_span", "nullspace", "GFMatrix"}
    # rref reads the reduced rows as they are and _solve turns them into
    # solutions; _independent_rows reads only the pivots
    callers = {(module, node.name) for module, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and calls(node, "_rref_array")}
    assert callers == {("matrix.py", "rref"), ("matrix.py", "_solve"),
                       ("constructions.py", "_independent_rows")}
    assert sum(calls(tree, "_rref_array") for tree in trees.values()) == 3


def test_a_criterion_runs_whole_through_one_call():
    # run_criterion alone looks a runner up in _CRITERIA, and it hands the
    # pairs that runner yields to _collect alone, so no caller drains a
    # runner part way
    trees = sources()
    run = next(fn for fn in trees["sweep.py"].body
               if isinstance(fn, ast.FunctionDef)
               and fn.name == "run_criterion")
    lookups = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Subscript)
               and getattr(node.value, "id", None) == "_CRITERIA"]
    assert len(lookups) == 1 and lookups[0] in list(ast.walk(run))
    assert call_counts("_collect", "sweep.py", "run_criterion") == (1, 1)
    (pairs,), = [node.args for node in ast.walk(run)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_collect"]
    bound = [node.value for node in ast.walk(run)
             if isinstance(node, ast.Assign)
             and pairs.id in [getattr(t, "id", None) for t in node.targets]]
    assert [getattr(value.func, "id", None) for value in bound] == ["runner"]
    assert calls(run, "runner") == 1 and mentions(run, pairs.id) == 2


def tables_used(tree) -> set[str]:
    """The ``*_table`` attributes that the tree reads for more than their
    ``dtype``: indexed, or bound to a name that may be indexed later."""
    dtype_reads = {id(node.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "dtype"}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.endswith("_table") and id(node) not in dtype_reads}


def test_only_field_and_matrix_use_tables_other_than_mul():
    for name, tree in sources().items():
        if name not in ("field.py", "matrix.py"):
            assert tables_used(tree) <= {"mul_table"}, name


def mentions(tree, name: str) -> int:
    """How often the tree names ``name``, bare or as an attribute, called
    or not (so ``np.bitwise_xor.reduce`` and an alias count too)."""
    return sum(name in (getattr(node, "id", None), getattr(node, "attr", None))
               for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute)))


def test_gf_add_is_the_one_choice_between_xor_and_add_table():
    assert not hasattr(codes, "_add")
    trees = sources()
    gf = next(node for node in trees["field.py"].body
              if isinstance(node, ast.ClassDef) and node.name == "GF")
    method = {node.name: node for node in gf.body
              if isinstance(node, ast.FunctionDef)}
    # GF.sum reduces by the rule of GF.add, so the two hold every XOR
    assert sum(mentions(tree, "bitwise_xor") for tree in trees.values()) == 2
    assert mentions(method["add"], "bitwise_xor") == 1
    assert mentions(method["sum"], "bitwise_xor") == 1
    assert tables_used(method["add"]) == {"add_table"}
    assert tables_used(method["sum"]) == {"add_table"}
    assert tables_used(method["matmul"]) == {"mul_table"}
    for name, tree in trees.items():
        if name != "field.py":
            assert "add_table" not in tables_used(tree), name


def test_the_dealer_does_no_table_arithmetic():
    assert tables_used(sources()["sss.py"]) == set()


def test_gf_add_matches_the_add_table_on_every_field():
    for q in range(2, 257):
        if field._prime_power(q) is None:
            continue
        f = mincodes.build_field(q)
        a, b = np.indices((q, q), dtype=f.dtype)
        sums = f.add(a, b)
        assert sums.dtype == f.dtype
        assert np.array_equal(sums, f.add_table), q
