"""Source checks that need no linter: every name a module imports is used,
every public tape op has a caller, only the tape's backward pass
accumulates gradients, no loop walks a numpy neighbour row, and the model
and evaluation read a subgraph only through its packed content."""

import ast
from pathlib import Path

import pytest

import unilp
from unilp.autodiff import Tape

SOURCES = sorted(Path(unilp.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read anywhere in the
    module. `__future__` imports and names listed in `__all__` are exempt."""
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .graphs import Graph, pair_index as pi\n"
        "from .errors import ConfigError\n"
        "__all__ = ['ConfigError']\n"
        "def f(g: Graph):\n"
        "    return os.path.join(str(pi), str(np.pi))\n"
    )
    assert unused_imports(source) == [(2, "json")]


def tape_ops_called(source: str) -> set:
    """Names of methods called on a name `tape` (how the package calls its
    tape ops) or on a fresh `Tape()`."""
    called = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (isinstance(receiver, ast.Name) and receiver.id == "tape") or (
                    isinstance(receiver, ast.Call) and isinstance(receiver.func, ast.Name)
                    and receiver.func.id == "Tape"):
                called.add(node.func.attr)
    return called


def test_only_the_test_reference_tape_ops_go_uncalled():
    """The ops only the tests' references use (scale, concat, dot_rows) live
    on `oracles.ReferenceTape`, so every public op of the package's Tape has
    a caller in the package; one that no module calls is dead code."""
    public = {name for name, value in vars(Tape).items()
              if callable(value) and not name.startswith("_")}
    called = set().union(*(tape_ops_called(path.read_text(encoding="utf-8")) for path in SOURCES))
    assert public - called == set()
    # receivers other than a tape do not count
    assert tape_ops_called("tape.add(a, b)\nTape().bce(p, 1)\nedges.add(x)\nnp.add(a, b)\n") == {"add", "bce"}


def gradient_bookkeeping(source: str) -> tuple:
    """(where `_accumulate` is called, which Tape methods define a nested
    `pull`), naming a method `Class.method`, a function by its name and any
    other top-level statement `<module>`."""
    callers, pulls = set(), set()
    for top in ast.parse(source).body:
        members = top.body if isinstance(top, ast.ClassDef) else [top]
        for member in members:
            name = getattr(member, "name", "<module>")
            where = f"{top.name}.{name}" if isinstance(top, ast.ClassDef) else name
            for node in ast.walk(member):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_accumulate"):
                    callers.add(where)
                elif (isinstance(node, ast.FunctionDef) and node is not member and node.name == "pull"
                        and isinstance(top, ast.ClassDef) and top.name == "Tape"):
                    pulls.add(where)
    return callers, pulls


def test_only_the_backward_pass_accumulates_gradients():
    """Ops give one gradient function per operand; the tape drops the ones
    that need no gradient and accumulates the rest, so no op guards or
    accumulates on its own."""
    source = (Path(unilp.__file__).parent / "autodiff.py").read_text(encoding="utf-8")
    assert gradient_bookkeeping(source) == ({"Tape.backward"}, set())
    snippet = (
        "def _accumulate(t, g):\n"
        "    pass\n"
        "_accumulate(None, None)\n"
        "class Tape:\n"
        "    def backward(self, loss):\n"
        "        _accumulate(loss, 1.0)\n"
        "    def scale(self, a, c):\n"
        "        def pull(g):\n"
        "            if a._needs:\n"
        "                _accumulate(a, g * c)\n"
        "        return pull\n"
        "    def clamp(self, x):\n"
        "        return [(x, lambda g: _accumulate(x, g))]\n"
        "class Other:\n"
        "    def run(self):\n"
        "        def pull(g):\n"
        "            return g\n"
        "        return pull\n"
    )
    assert gradient_bookkeeping(snippet) == (
        {"<module>", "Tape.backward", "Tape.scale", "Tape.clamp"}, {"Tape.scale"})


def neighbor_row_loops(source: str) -> list:
    """Lines of the `for` loops and comprehensions that iterate a
    `.neighbors(...)` call, walking a numpy row one scalar at a time."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.comprehension)):
            loop = node.iter
            if (isinstance(loop, ast.Call) and isinstance(loop.func, ast.Attribute)
                    and loop.func.attr == "neighbors"):
                lines.append(loop.lineno)
    return lines


def test_no_loop_walks_a_numpy_neighbor_row():
    """Python walks read `Graph.neighbor_lists()` rows (tuples of ints)."""
    found = {path.name: neighbor_row_loops(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    snippet = (
        "for w in g.neighbors(x):\n"
        "    pass\n"
        "rows = g.neighbor_lists()\n"
        "for w in rows[x]:\n"
        "    pass\n"
        "seen = {w for w in self.neighbors(u) if w > u}\n"
        "row = g.neighbors(x)\n"
        "for w in g.neighbors(x).tolist():\n"
        "    pass\n"
        "for x in neighbors(row):\n"
        "    pass\n"
    )
    assert neighbor_row_loops(snippet) == [1, 6]


def subgraph_field_uses(source: str) -> list:
    """Lines that read or set an `.adj` or `.labels` attribute, the tuple fields
    whose packed layout `labeling` alone writes and reads."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("adj", "labels"))


def test_model_and_evaluation_read_subgraphs_only_through_their_content():
    package = Path(unilp.__file__).parent
    found = {name: subgraph_field_uses((package / name).read_text(encoding="utf-8"))
             for name in ("model.py", "evaluation.py")}
    assert found == {"model.py": [], "evaluation.py": []}
    snippet = (
        "rows = [sub.adj for sub in subs]\n"
        "contents = [sub.content for sub in subs]\n"
        "a, b = sub.labels[0]\n"
        "adj = labels = None\n"
        "n = len(getattr(sub, 'adj'))\n"
        "sub.adj = ()\n"
    )
    assert subgraph_field_uses(snippet) == [1, 3, 6]
