"""Lint: every module-level import in `src/dunkl` is used.

A name bound by a top-level `import` or `from ... import` counts as used
when the module reads it anywhere, or, in `__init__.py`, when `__all__`
lists it.  `from __future__` imports are compiler directives and exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dunkl"


def unused_imports(source):
    """Names bound by module-level imports of `source` that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_lint_sees_unused_and_exported_names():
    src = ("from __future__ import annotations\n"
           "import os\nfrom math import gcd, lcm\n"
           "__all__ = ['lcm']\n"
           "def f():\n    return os.sep\n")
    assert unused_imports(src) == [(3, "gcd")]
