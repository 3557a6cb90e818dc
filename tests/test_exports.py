"""``mincodes.__all__`` lists exactly the public names the package binds."""

import ast
from pathlib import Path

import mincodes

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
