"""Every name the package defines has a caller.

A name is read when it is loaded, taken as an attribute or imported.  The
check goes by name only, so a use of another module's namesake counts
too, and dunders are exempt.

A private module-level function, class or constant (its name starts with
``_``) can only be used inside the package, so it must be read somewhere
in ``src/mincodes`` outside its own definition.

A public module-level function, class or constant, and a public method of
any module-level class, must be read in ``src/mincodes`` outside its own
definition or in a demo, be named in a code span or block of the README,
or sit on ``ALLOWED`` with a reason.  The re-exports in ``__init__.py`` and
its ``__all__`` are not uses, and a method counts only reads as an
attribute, since a bare name never reaches it.

Both checks run to a fixpoint: they run again with each flagged
definition dropped until they flag nothing new, so a name that only dead
code reads is flagged too.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mincodes"

# public names kept without a caller in the package, the README or a demo
ALLOWED = {
    "cli._Parser.error": "argparse calls it: it overrides "
                         "ArgumentParser.error",
}


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


def methods(tree):
    """(Class.name, node) for each function defined in a module-level
    class."""
    for cls, node in definitions(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{cls}.{item.name}", item


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


def attribute_uses(tree):
    """How often each name is taken as an attribute in tree."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


def dropped(sources: dict[str, str], names) -> dict[str, str]:
    """sources without the definitions of names (module.name or
    module.Class.method); an assignment goes when all its targets do."""
    out = {}
    for module, text in sources.items():
        tree = ast.parse(text)
        gone = {name.partition(".")[2] for name in names
                if name.partition(".")[0] == module}
        targets: dict[int, set] = {}
        for name, node in definitions(tree):
            targets.setdefault(id(node), set()).add(name)
        tree.body = [node for node in tree.body
                     if id(node) not in targets
                     or not targets[id(node)] <= gone]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                cls.body = [item for item in cls.body
                            if f"{cls.name}.{getattr(item, 'name', '')}"
                            not in gone] or [ast.Pass()]
        out[module] = ast.unparse(tree)
    return out


def to_fixpoint(find, sources, *args):
    """Every name find(sources, *args) flags, with each flagged name
    dropped and find run again until it flags nothing new."""
    flagged = []
    while True:
        new = [name for name in find(sources, *args) if name not in flagged]
        if not new:
            return flagged
        flagged += new
        sources = dropped(sources, new)


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for each private module-level name with no use, to a
    fixpoint."""
    return to_fixpoint(_unused_private_names, sources)


def _unused_private_names(sources):
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


def unused_public_names(sources: dict[str, str], outside=(),
                        named=frozenset()) -> list[str]:
    """module.name or module.Class.method for each public module-level name
    or method that is not in named and that neither a module but
    ``__init__``, outside its own definition, nor a tree in outside
    reads, to a fixpoint."""
    return to_fixpoint(_unused_public_names, sources, outside, named)


def _unused_public_names(sources, outside, named):
    trees = {module: ast.parse(text) for module, text in sources.items()}
    readers = [tree for module, tree in trees.items() if module != "__init__"]
    readers += outside
    totals = {reads: sum((reads(tree) for tree in readers), Counter())
              for reads in (uses, attribute_uses)}
    unused = []
    for module, tree in trees.items():
        found = [(name, node, uses) for name, node in definitions(tree)]
        found += [(name, node, attribute_uses) for name, node in methods(tree)]
        for qualname, node, reads in found:
            name = qualname.rpartition(".")[2]
            if name.startswith("_") or name in named:
                continue
            if totals[reads][name] == reads(node)[name]:
                unused.append(f"{module}.{qualname}")
    return unused


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py"))}


def demo_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "demos").glob("*.py"))]


def readme_names() -> set[str]:
    """Each identifier in a code span or block of the README."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]*`", text, re.S)
    return set(re.findall(r"\w+", "\n".join(code)))


def test_every_private_name_has_a_use():
    assert unused_private_names(package_sources()) == []


def test_every_public_name_has_a_use_or_a_reason():
    unused = unused_public_names(package_sources(), demo_trees(),
                                 readme_names())
    assert sorted(set(unused) - set(ALLOWED)) == []
    # an allowed name that gains a caller leaves the list
    assert sorted(set(ALLOWED) - set(unused)) == []


def test_a_private_name_used_only_by_itself_is_found():
    sources = {
        "a": "_LIMIT = 3\n"
             "def _loop(n):\n    return _loop(n - 1)\n"
             "def _used():\n    return _LIMIT\n"
             "class _Gone:\n    pass\n",
        "b": "from .a import _used\n__all__ = []\n",
    }
    assert unused_private_names(sources) == ["a._loop", "a._Gone"]


def test_a_private_name_read_only_by_dead_code_is_found():
    sources = {
        "a": "def _b():\n    return 1\n"
             "def _a():\n    return _b()\n"
             "class _C:\n    def run(self):\n        return _d\n"
             "_d = 2\n",
    }
    # one pass flags _a and _C; without them nothing reads _b or _d
    assert unused_private_names(sources) == ["a._a", "a._C", "a._b", "a._d"]


def test_an_unused_public_method_is_found():
    sources = {
        "a": "class Box:\n"
             "    def __len__(self):\n        return 0\n"
             "    def get(self):\n        return self.get()\n"
             "    def put(self):\n        pass\n"
             "    def size(self):\n        pass\n"
             "    def shown(self):\n        pass\n"
             "    def demoed(self):\n        pass\n"
             "def make():\n    return Box()\n"
             "def exported():\n    pass\n",
        "b": "from .a import make\n"
             "size = 3\n"
             "make().put(size)\n",
        "__init__": "from .a import Box, exported\n"
                    "__all__ = ['Box', 'exported']\n",
    }
    demo = ast.parse("from mincodes import make\nmake().demoed()\n")
    # get is read only by itself, size only as a bare name, and exported
    # only by __init__; shown is named in the README
    assert unused_public_names(sources, [demo], {"shown"}) == [
        "a.exported", "a.Box.get", "a.Box.size"]
