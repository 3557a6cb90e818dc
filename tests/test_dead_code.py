"""Every name the package defines has a caller.

A name is read when it is loaded, as a bare name or an attribute, or
imported.  The check goes by name, so a use of another module's namesake
counts too, and dunders are exempt.  Three receivers of an attribute read
``r.x`` resolve to a module-level class C of the package, and the read is
then of C's own x only, never of a module-level name or another class's
attribute x:

- ``self`` in a method of C;
- a parameter annotated with C (a bare name or a string);
- a name whose every binding in its scope is a call ``C(...)`` or
  ``module.C(...)``, as in ``x = C(...); x.v``.

A receiver bound any other way, even once in its scope, stays
unresolved, and its read counts for every attribute x.  A function sees
the receivers that its enclosing function or module resolves and that
it does not bind itself; a method does not see its class body's names.
Bases are not followed: a resolved read counts for C's own x only.

An attribute of a module-level class is a field of a dataclass or a
``self.x`` assigned in ``__init__``; an assignment to it is not a read.

A private module-level function, class or constant, or a private method
or attribute (its name starts with ``_``) can only be used inside the
package, so it must be read somewhere in ``src/mincodes`` outside its own
definition.

A public module-level function, class or constant, and a public method or
attribute of any module-level class, must be read in ``src/mincodes``
outside its own definition or in a demo, be named in a code span or block
of the README, or sit on ``ALLOWED`` with a reason.  The re-exports in
``__init__.py`` and its ``__all__`` are not uses, and a method or
attribute counts only reads as an attribute, since a bare name never
reaches it.

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


def attributes(tree):
    """(Class.name, node) for each field of a module-level dataclass and
    each ``self.name`` assigned in the ``__init__`` of a module-level
    class, node being the assignment."""
    for cls, node in definitions(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if is_dataclass(node) and isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                yield f"{cls}.{item.target.id}", item
            elif getattr(item, "name", None) == "__init__":
                for stmt in ast.walk(item):
                    for target in self_targets(stmt):
                        yield f"{cls}.{target.attr}", stmt


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in cls.decorator_list)


def self_targets(stmt):
    """The ``self.x`` targets of an assignment statement."""
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t for t in targets if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name) and t.value.id == "self"]


def uses(tree, resolved):
    """How often each name is read in tree: loaded, as a bare name or an
    attribute, or imported; see ``attribute_uses`` for resolved."""
    found = attribute_uses(tree, resolved)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def attribute_uses(tree, resolved):
    """How often each name is loaded as an attribute in tree.  A load
    that resolved maps to class C (see ``receivers``) counts as ``C.x``,
    not as x."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            cls = resolved.get(id(node))
            found[f"{cls}.{node.attr}" if cls else node.attr] += 1
    return found


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def receivers(tree, classes) -> dict[int, str]:
    """The class, one of the names classes, of each attribute load in tree
    whose receiver resolves (see the module docstring), by the id of its
    ``ast.Attribute`` node."""
    found = {}

    def visit(scope, env, owner=None):
        nodes = list(local_nodes(scope))
        bound: dict[str, set] = {}
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            a = scope.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                bound.setdefault(arg.arg, set()).add(
                    owner if owner and arg.arg == "self"
                    else named_class(arg.annotation, classes))
            for arg in (a.vararg, a.kwarg):
                if arg is not None:
                    bound.setdefault(arg.arg, set()).add(None)
        made = {id(target): constructed(node.value, classes)
                for node in nodes if isinstance(node, ast.Assign)
                for target in node.targets}
        made.update({id(node.target): constructed(node.value, classes)
                     for node in nodes if isinstance(node, ast.AnnAssign)})
        for node in nodes:
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Load):
                bound.setdefault(node.id, set()).add(made.get(id(node)))
        inner = {name: cls for name, cls in env.items() if name not in bound}
        inner.update({name: next(iter(kinds)) for name, kinds in bound.items()
                      if len(kinds) == 1 and None not in kinds})
        for node in nodes:
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in inner:
                found[id(node)] = inner[node.value.id]
            elif isinstance(node, ast.ClassDef):
                # self is C only in a method of module-level class C
                visit(node, inner,
                      node.name if isinstance(scope, ast.Module) else None)
            elif isinstance(node, SCOPES) and isinstance(scope, ast.ClassDef):
                # a method does not see the names of its class body
                visit(node, env, owner)
            elif isinstance(node, SCOPES):
                visit(node, inner)

    visit(tree, {})
    return found


def local_nodes(scope):
    """The nodes of scope's body, down to and including each nested
    function, lambda or class, but not into one."""
    todo = list(scope.body) if isinstance(scope.body, list) \
        else [scope.body]
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def named_class(annotation, classes):
    """The class of classes that an annotation names, else None."""
    name = getattr(annotation, "id", getattr(annotation, "value", None))
    return name if isinstance(name, str) and name in classes else None


def constructed(value, classes):
    """The class of classes that value calls, ``C(...)`` or
    ``module.C(...)``, else None."""
    func = getattr(value, "func", None)
    name = getattr(func, "id", getattr(func, "attr", None))
    return name if isinstance(value, ast.Call) and name in classes else None


def dropped(sources: dict[str, str], names) -> dict[str, str]:
    """sources without the definitions of names (module.name or
    module.Class.member); an assignment goes when all its targets do."""
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
                drop = DropSelfTargets(cls.name, gone)
                cls.body = [drop.visit(item) for item in cls.body
                            if f"{cls.name}.{member(item)}" not in gone] \
                    or [ast.Pass()]
        out[module] = ast.unparse(tree)
    return out


def member(item) -> str:
    """The name a class-body item defines: a function, class or field."""
    return getattr(item, "name", getattr(getattr(item, "target", None),
                                         "id", ""))


class DropSelfTargets(ast.NodeTransformer):
    """Take the ``self.x`` targets of Class.x in gone off the assignments
    of an ``__init__``; an assignment left with none becomes ``pass``."""

    def __init__(self, cls, gone):
        self.gone = {name.partition(".")[2] for name in gone
                     if name.partition(".")[0] == cls}

    def visit_FunctionDef(self, node):
        return self.generic_visit(node) if node.name == "__init__" else node

    def visit_Assign(self, node):
        node.targets = [t for t in node.targets if t not in self_targets(node)
                        or t.attr not in self.gone]
        return node if node.targets else ast.Pass()

    def visit_AnnAssign(self, node):
        return ast.Pass() if self_targets(node) and \
            node.target.attr in self.gone else node


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
    """module.name or module.Class.attribute for each private module-level
    name or attribute with no use, to a fixpoint."""
    return to_fixpoint(_unused_private_names, sources)


def _unused_private_names(sources):
    trees = {module: ast.parse(text) for module, text in sources.items()}
    return unread(trees, list(trees.values()),
                  lambda name: name.startswith("_"))


def unread(trees, readers, checked):
    """module.qualname for each module-level name, method or attribute in
    trees whose last part passes checked and that no tree in readers
    reads outside its own definition, a method or attribute as an
    attribute; each once, in the order of trees."""
    classes = {name for tree in trees.values()
               for name, node in definitions(tree)
               if isinstance(node, ast.ClassDef)}
    resolved = {}
    for tree in dict.fromkeys([*trees.values(), *readers]):
        resolved.update(receivers(tree, classes))
    totals = {reads: sum((reads(tree, resolved) for tree in readers),
                         Counter())
              for reads in (uses, attribute_uses)}
    unused = []
    for module, tree in trees.items():
        found = [(name, node, uses) for name, node in definitions(tree)]
        found += [(name, node, attribute_uses)
                  for members in (methods, attributes)
                  for name, node in members(tree)]
        for qualname, node, reads in found:
            name = qualname.rpartition(".")[2]
            if name.startswith("__") or not checked(name):
                continue
            # a member is read as x by any receiver, or as Class.x by a
            # resolved one
            keys = {name, qualname}
            own = reads(node, resolved)
            if sum(totals[reads][k] - own[k] for k in keys) == 0:
                unused.append(f"{module}.{qualname}")
    return list(dict.fromkeys(unused))


def unused_public_names(sources: dict[str, str], outside=(),
                        named=frozenset()) -> list[str]:
    """module.name or module.Class.member for each public module-level
    name, method or attribute that is not in named and that neither a
    module but
    ``__init__``, outside its own definition, nor a tree in outside
    reads, to a fixpoint."""
    return to_fixpoint(_unused_public_names, sources, outside, named)


def _unused_public_names(sources, outside, named):
    trees = {module: ast.parse(text) for module, text in sources.items()}
    readers = [tree for module, tree in trees.items() if module != "__init__"]
    return unread(trees, readers + list(outside),
                  lambda name: not name.startswith("_") and name not in named)


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


def test_an_unread_attribute_is_found():
    sources = {
        "a": "from dataclasses import dataclass\n"
             "@dataclass(frozen=True)\n"
             "class Report:\n"
             "    ok: bool\n"
             "    count: int\n"
             "    shown: int\n"
             "    _note: str\n"
             "class Box:\n"
             "    limit: int = 3\n"
             "    def __init__(self, n):\n"
             "        self.n = self.size = n\n"
             "        self._spare = _pad()\n"
             "        if n:\n"
             "            self._cache: dict = {}\n"
             "        self.read = 0\n"
             "    def get(self):\n"
             "        self.size = 2\n"
             "        return self.n\n"
             "def _pad():\n    return 0\n"
             "def make():\n"
             "    return Box(1).get(), Report(True, 0, 0, '').ok\n",
        "b": "from .a import make\nx = make()\nx.read\n",
    }
    # size is only assigned, count only passed to the constructor, shown
    # is named in the README; a plain class's class attribute (limit) is
    # not checked
    assert unused_public_names(sources, [], {"shown"}) == [
        "a.Report.count", "a.Box.size"]
    # _pad is read only by the assignment of the unread _spare
    assert unused_private_names(sources) == [
        "a.Report._note", "a.Box._spare", "a.Box._cache", "a._pad"]


def test_a_self_read_counts_only_for_its_own_class():
    sources = {
        "a": "class Box:\n"
             "    def __init__(self):\n"
             "        self.size = 1\n"
             "        self._spare = 2\n"
             "class Crate:\n"
             "    def __init__(self):\n"
             "        self.size = 3\n"
             "        self._spare = 4\n"
             "    def weigh(self):\n"
             "        return self.size + self._spare + self._weight\n"
             "def _weight():\n    return 0\n"
             "def make():\n"
             "    return Box(), Crate().weigh()\n",
        "b": "from .a import make\nmake()\n",
    }
    # Crate's self reads keep Crate's attributes, not Box's namesakes,
    # and self._weight is no read of the module-level _weight
    assert unused_public_names(sources) == ["a.Box.size"]
    assert unused_private_names(sources) == ["a._weight", "a.Box._spare"]
    # any other receiver still reads every attribute of that name
    sources["b"] += "make()[0].size\n"
    assert unused_public_names(sources) == []


def test_a_constructed_name_reads_only_its_class():
    sources = {
        "a": "class Box:\n"
             "    def __init__(self):\n"
             "        self.size = 1\n"
             "        self._spare = 2\n"
             "class Crate:\n"
             "    def __init__(self):\n"
             "        self.size = 3\n"
             "        self._spare = 4\n"
             "def make():\n"
             "    crate = Crate()\n"
             "    return Box(), crate.size + crate._spare\n",
        "b": "from . import a\na.make()\n",
    }
    # crate is bound only by Crate(...), so its reads keep Crate's own
    assert unused_public_names(sources) == ["a.Box.size"]
    assert unused_private_names(sources) == ["a.Box._spare"]
    # box is bound only by a.Box(...), so its read keeps Box's own
    sources["b"] += "box = a.Box()\nbox.size\n"
    assert unused_public_names(sources) == []
    assert unused_private_names(sources) == ["a.Box._spare"]
    # bound once more in any other way, box reads every _spare
    sources["b"] += "box = None\nbox._spare\n"
    assert unused_private_names(sources) == []


def test_an_annotated_parameter_reads_only_its_class():
    def sources(params="crate: Crate, box: 'Box', *rest: Crate",
                inner="", read="box, rest"):
        return {
            "a": "class Box:\n"
                 "    def __init__(self):\n"
                 "        self.size = 1\n"
                 "class Crate:\n"
                 "    def __init__(self):\n"
                 "        self.size = 3\n"
                 f"def weigh({params}):\n"
                 f"    def inner({inner}):\n"
                 "        return crate.size\n"
                 f"    return inner, {read}\n"
                 "def make():\n"
                 "    return Box(), weigh(Crate(), Box())\n",
            "b": "from .a import make\nmake()\n",
        }

    # the nested function reads weigh's crate, a Crate
    assert unused_public_names(sources()) == ["a.Box.size"]
    # so does a read through a parameter annotated with a string
    assert unused_public_names(sources(
        params="crate: 'Crate', box: 'Crate'", read="box.size")) == [
            "a.Box.size"]
    # neither *rest nor a nested parameter named crate is annotated
    assert unused_public_names(sources(read="rest.size")) == []
    assert unused_public_names(sources(inner="crate")) == []
