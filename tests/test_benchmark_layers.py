"""The functions the benchmark's tracer times and hooks exist in the package.

perfbench/tracer.py names library functions by "module.function" or
"module.Class.method" and wraps only those it finds; a deleted or renamed
one would read 0 in its per-layer metric instead of failing.
"""

import dataclasses
import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _wrapped_by_tracer(name):
    """True when the tracer's install rule would wrap the function `name`."""
    short, *rest = name.split(".")
    mod = importlib.import_module(f"anisospec.{short}")
    if len(rest) == 1:
        fn = vars(mod).get(rest[0])
        return inspect.isfunction(fn) and fn.__module__ == mod.__name__
    cls_name, attr = rest
    cls = vars(mod).get(cls_name)
    if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
        return False
    if attr == "__init__" and dataclasses.is_dataclass(cls):
        return False
    return inspect.isfunction(vars(cls).get(attr))


def test_tracer_layer_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    names = set(tracer.HOOKS)
    for _, _, functions in tracer.LAYER_TABLE.values():
        names.update(functions)
    assert names
    missing = sorted(n for n in names if not _wrapped_by_tracer(n))
    assert missing == []
