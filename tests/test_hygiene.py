"""Source checks that need no linter: every name a module imports is used."""

import ast
from pathlib import Path

import pytest

import unilp

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
