"""Source checks that need no linter: every name a module imports is used,
and every public tape op outside the tests' references has a caller."""

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
    """scale, concat and dot_rows define the model bit for bit in the tests'
    references; any other public op no package module calls is dead code."""
    public = {name for name, value in vars(Tape).items()
              if callable(value) and not name.startswith("_")}
    called = set().union(*(tape_ops_called(path.read_text(encoding="utf-8")) for path in SOURCES))
    assert public - called == {"scale", "concat", "dot_rows"}
    # receivers other than a tape do not count
    assert tape_ops_called("tape.add(a, b)\nTape().bce(p, 1)\nedges.add(x)\nnp.add(a, b)\n") == {"add", "bce"}
