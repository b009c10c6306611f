"""The traced benchmark wraps `dunkl` functions by name: they must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
