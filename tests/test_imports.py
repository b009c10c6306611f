"""Lint: every module-level import in `src/dunkl` is used, and so is
every module-level private function.

A name bound by a top-level `import` or `from ... import` counts as used
when the module reads it anywhere, or, in `__init__.py`, when `__all__`
lists it.  `from __future__` imports are compiler directives and exempt.

A top-level `def _name`, or a `def _name` in the body of a top-level
class (dunders exempt), counts as used when some module of `src/dunkl`
refers to it outside its own body: as a name, an attribute or an
imported name.  So a change that removes the last caller of a helper
must remove the helper too.

A private attribute set as `self._name = ...` (dunders exempt) counts as
used when some module of `src/dunkl` reads `._name`; storing into it, as
in `self._memo[key] = value`, is no read.  So a change that removes the
last reader of a cache must remove the cache too.

No module imports `fractions` or `decimal` when it is loaded: `Coeff`
holds every exact rational, and `Fraction` is imported only inside the
functions that parse, print or evaluate one.  A fresh `verify` process
that parses no rational must end without either module loaded.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dunkl"
LAZY_MODULES = {"fractions", "decimal"}


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


def load_time_imports(source):
    """Top-level names of the modules `source` imports when it is loaded:
    every import outside a function body."""
    out = set()
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return out


def _references(tree, skip=None):
    """Names `tree` refers to, outside the node `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _defs(tree):
    """The top-level functions of `tree` and the methods of its top-level
    classes."""
    for node in tree.body:
        yield node
        if isinstance(node, ast.ClassDef):
            yield from node.body


def orphan_private_functions(sources):
    """(module, name) of each top-level `def _name` or private method in
    {module: source} that no module refers to outside its own body."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    everywhere = {mod: _references(tree) for mod, tree in trees.items()}
    orphans = []
    for mod, tree in trees.items():
        for node in _defs(tree):
            name = getattr(node, "name", "")
            if not (isinstance(node, ast.FunctionDef)
                    and name.startswith("_") and not name.startswith("__")):
                continue
            elsewhere = any(name in refs for other, refs in everywhere.items()
                            if other != mod)
            if not elsewhere and name not in _references(tree, skip=node):
                orphans.append((mod, name))
    return sorted(orphans)


def _attribute_reads(tree):
    """Attribute names `tree` reads: each `obj.name` loaded, except as the
    container of a subscript store or delete (`self._memo[k] = v`)."""
    stored = {id(node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Subscript)
              and not isinstance(node.ctx, ast.Load)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in stored}


def _private_self_attributes(tree):
    """Names `_name` (dunders exempt) that `tree` sets as `self._name`."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and node.attr.startswith("_") and not node.attr.startswith("__")}


def unread_private_attributes(sources):
    """(module, name) of each `self._name` set in {module: source} that no
    module reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set().union(*map(_attribute_reads, trees.values()))
    return sorted((mod, name) for mod, tree in trees.items()
                  for name in _private_self_attributes(tree)
                  if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_fractions_or_decimal_when_loaded(path):
    assert load_time_imports(path.read_text()) & LAZY_MODULES == set()


def _workload_argv(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[name]


# what perfbench/child.py has loaded before it imports dunkl
_VERIFY = """
import json, random, sys
from pathlib import Path
from dunkl.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps({"exit": code, "loaded": sorted(
    name for name in ("fractions", "decimal") if name in sys.modules)}))
"""


def _fresh_verify(argv, out):
    """Exit code of `verify argv` in a fresh interpreter, and which of
    `fractions` and `decimal` it had loaded by the end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY,
         json.dumps(argv + ["--out", str(out)])],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    return got["exit"], set(got["loaded"])


@pytest.mark.parametrize("workload", ["cover-s5", "symbolic-a1x4"])
def test_a_run_that_parses_no_rational_loads_no_fractions(workload,
                                                          tmp_path):
    code, loaded = _fresh_verify(_workload_argv(workload),
                                 tmp_path / "r.json")
    assert code == 0
    assert loaded == set()


def test_specialize_still_parses_rationals(tmp_path):
    out = tmp_path / "r.json"
    code, _ = _fresh_verify(["--family", "B", "--rank", "2", "--suite",
                             "osp", "--specialize", "s=2,c1=1/3,c2=1/5"],
                            out)
    assert code == 0
    spec = json.loads(out.read_text())["config"]["specialize"]
    assert spec == {"s": "2", "c1": "1/3", "c2": "1/5"}


def test_no_orphan_private_functions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert orphan_private_functions(sources) == []


def test_no_unread_private_attributes():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_attributes(sources) == []


def test_lint_sees_unused_and_exported_names():
    src = ("from __future__ import annotations\n"
           "import os\nfrom math import gcd, lcm\n"
           "__all__ = ['lcm']\n"
           "def f():\n    return os.sep\n")
    assert unused_imports(src) == [(3, "gcd")]


def test_lint_sees_imports_made_at_load_time():
    src = ("from __future__ import annotations\n"
           "import os.path\nfrom . import sibling\n"
           "if True:\n    from fractions import Fraction\n"
           "class K:\n    import decimal\n"
           "    def f(self):\n        import json\n"
           "def g():\n    from math import gcd\n")
    assert load_time_imports(src) == {"__future__", "os", "fractions",
                                      "decimal"}


def test_lint_sees_orphan_private_functions():
    sources = {
        "a.py": ("def _called():\n    pass\n"
                 "def _imported():\n    pass\n"
                 "def _read_as_attribute():\n    pass\n"
                 "def _recursive_only(n):\n    return _recursive_only(n)\n"
                 "def _orphan():\n    pass\n"
                 "def __dunder__():\n    pass\n"
                 "def f():\n    return _called()\n"),
        "b.py": ("import a\nfrom a import _imported\n"
                 "def g():\n    return a._read_as_attribute, _imported\n"),
        "c.py": ("class K:\n"
                 "    def _called(self):\n        pass\n"
                 "    def _used_elsewhere(self):\n        pass\n"
                 "    def _self_only(self):\n        return self._self_only()\n"
                 "    def _unused_method(self):\n        pass\n"
                 "    def __init__(self):\n        pass\n"
                 "    def f(self):\n        return self._called()\n"),
        "d.py": "def h(k):\n    return k._used_elsewhere()\n",
    }
    assert orphan_private_functions(sources) == [
        ("a.py", "_orphan"), ("a.py", "_recursive_only"),
        ("c.py", "_self_only"), ("c.py", "_unused_method")]


def test_lint_sees_unread_private_attributes():
    sources = {
        "a.py": ("class K:\n"
                 "    def __init__(self):\n"
                 "        self._read = self._read_elsewhere = 1\n"
                 "        self._stored_into = {}\n"
                 "        self._stored_into[0] = 1\n"
                 "        self._unread, self.public = 2, 3\n"
                 "        self._counted = 0\n"
                 "        self._counted += 1\n"
                 "        self.__dunder__ = 4\n"
                 "    def f(self):\n"
                 "        return self._read\n"),
        "b.py": "def g(k):\n    return k._read_elsewhere\n",
    }
    assert unread_private_attributes(sources) == [
        ("a.py", "_counted"), ("a.py", "_stored_into"), ("a.py", "_unread")]
