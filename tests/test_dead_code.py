"""Every private module-level name in the package has a caller.

A function, class or constant whose name starts with ``_`` is private to
the package, so any use of it sits in ``src/mincodes``.  One whose name
is read nowhere there outside its own definition (loaded, taken as an
attribute or imported) is dead code.  The check goes by name only, so a
use of another module's namesake counts too.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mincodes"


def definitions(tree):
    """(name, node) for each module-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def uses(tree):
    """How often each name is read in tree: loaded, taken as an
    attribute or imported."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for each private module-level name with no use."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    counts = {module: uses(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            total = sum(c[name] for c in counts.values())
            if total == uses(node)[name]:  # only inside its own definition
                unused.append(f"{module}.{name}")
    return unused


def test_every_private_name_has_a_use():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_a_private_name_used_only_by_itself_is_found():
    sources = {
        "a": "_LIMIT = 3\n"
             "def _loop(n):\n    return _loop(n - 1)\n"
             "def _used():\n    return _LIMIT\n"
             "class _Gone:\n    pass\n",
        "b": "from .a import _used\n__all__ = []\n",
    }
    assert unused_private_names(sources) == ["a._loop", "a._Gone"]
