"""The traced benchmark wraps `dunkl` functions by name: they must exist;
and its self-test and one traced round of a workload must pass."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    # loaded from its file without calling install(), which patches dunkl
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracer = _load_tracer()
    keys = set()
    for owner, names, layer in tracer.ENTRY_POINTS:
        assert layer in tracer.LAYERS
        module_name, _, class_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if class_name:
            target = inspect.getattr_static(target, class_name)
        for name in names.split():
            static = inspect.getattr_static(target, name)
            fn = static.__func__ if isinstance(static, staticmethod) else static
            assert callable(fn), f"{owner}.{name}"
            keys.add(f"{owner}.{name}")
    # a counter or timer on a name that is not wrapped would read 0
    for table in (tracer.COUNTS, tracer.INCLUSIVE, tracer.MAXIMA):
        assert set(table) <= keys


def _perfbench(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=300)


def test_perfbench_selftest_passes():
    proc = _perfbench("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stderr


def test_a_traced_specialised_b2_round_is_correct():
    # the tracer reads the matrices of `polyspinor` and the oracle the
    # dense Coeff view, so this round runs both on the current form
    proc = _perfbench("perfbench/run.py", "--workload", "specialised-b2",
                      "--seed", "1", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, last
