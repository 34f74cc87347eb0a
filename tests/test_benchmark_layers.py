"""The functions the benchmark's tracer times and hooks exist in the package,
and each hook reads the arguments and results of its function.

perfbench/tracer.py names library functions by "module.function" or
"module.Class.method" and wraps only those it finds; a deleted or renamed
one would read 0 in its per-layer metric instead of failing.  A hook reads
its call's arguments and result by position and attribute; one that no
longer fits its function would fail or read 0 in a traced run only.
"""

import collections
import dataclasses
import importlib
import inspect
import pathlib

import numpy as np

from anisospec.bracket_metric import MetricParams
from anisospec.errors import ResolutionError
from anisospec.escape import EscapeConfig
from anisospec.fractal_count import synth_holder
from anisospec.quantize import BandSubspace
from anisospec.suspension import CAT_MAP, CAT_SPLIT
from anisospec.wavepackets import TorusGrid

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


def _hook_calls():
    """Per hooked function, the arguments of a small real call as the
    tracer's wrapper receives them (a method's instance first), and the
    exception the call raises, if any."""
    grid, p = TorusGrid(0, 16), MetricParams(1.0, 0.5, 0.0)
    cfg = EscapeConfig(r_u=8.0, r_s=8.0, gamma=0.0)
    form = synth_holder(0.5, seed=3)
    return {
        "wavepackets.TorusGrid.fcoef": ((grid, np.ones(16)), None),
        "wavepackets.TorusGrid.finv": ((grid, np.ones(16)), None),
        "wavepackets.m_gauss_hermite": ((np.array([0.0, 0.0, 5.0]), p, 3),
                                        None),
        "quantize.BandSubspace.matrix": ((BandSubspace(grid, 1),
                                          lambda u: u), None),
        "escape.weight": ((np.ones(3), np.ones(3), 1.0, CAT_SPLIT, cfg, p),
                          None),
        "suspension.full_spectrum": ((0, 2, cfg, 0.1, CAT_MAP, p), None),
        "fractal_count.evaluate": ((form, np.zeros((4, 1))), None),
        # the hook counts refusals only
        "fractal_count.box_count": ((form, 2.0**40, 0.9), ResolutionError),
    }


def test_tracer_hooks_read_real_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    calls = _hook_calls()
    assert calls.keys() == tracer.HOOKS.keys()
    for name, (args, raises) in calls.items():
        short, *path = name.split(".")
        fn = importlib.import_module(f"anisospec.{short}")
        for attr in path:
            fn = getattr(fn, attr)
        result = exc = None
        try:
            result = fn(*args)
        except Exception as err:
            exc = err
        assert (type(exc) if exc else None) is raises, name
        counts = collections.defaultdict(int)
        tracer.HOOKS[name](counts, args, {}, result, exc)
        assert counts and all(counts.values()), name
        if name == "suspension.full_spectrum":
            assert counts["suspension.orbits"] == len(result.certificates) > 0
