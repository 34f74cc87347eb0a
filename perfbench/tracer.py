"""Spans around the public functions of the anisospec modules.

`Tracer.install` wraps, from outside the library, every public function and
every public method of the classes each module defines (plus the explicit
`__init__` of non-dataclass classes). A function imported by another module
with `from .x import f` is a separate binding, so every anisospec namespace
that binds the original object gets the wrapper, and so do module-level
lists of them (`acceptance.ALL_CRITERIA`).

Each thread keeps its own span stack, so the pooled `verify-all` run
attributes time to the thread that spent it. A span's self time is its
duration minus the durations of its direct child spans; a module's
`self_s` is the sum of the self times of its functions, i.e. the time in
its public calls minus nested calls into other modules. Inclusive time per
function counts only the outermost active call in a thread, so recursion
is not counted twice. A call does only clock reads and an append; spans
stay in memory (a flat `array('d')` per thread) and are summed and written
once, at the end.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import sys
import threading
import time
from array import array

import numpy as np

from workloads import WORKLOADS

# Modules whose self time is reported. `acceptance` is wrapped too, for the
# per-criterion spans; `cli` is not: the worker opens one root span per CLI
# task instead.
SELF_LAYERS = ("bracket_metric", "wavepackets", "quantize", "escape",
               "shift_model", "suspension", "fractal_count")
WRAPPED = SELF_LAYERS + ("acceptance",)

SPAN_FIELDS = ("span_id", "parent_id", "task", "function", "thread",
               "start", "end", "outermost")

# metric name -> (unit, kind, functions). Kinds: "time" sums inclusive
# seconds, "calls" sums call counts, "count" reads a counter the HOOKS keep.


def _time(*functions):
    return ("s", "time", list(functions))


def _calls(*functions):
    return ("count", "calls", list(functions))


_HOOKED = ("count", "count", [])
_INIT = "wavepackets.BargmannTransform.__init__"
_APPLY = "wavepackets.BargmannTransform.op_apply"
_FFT = ("wavepackets.TorusGrid.fcoef", "wavepackets.TorusGrid.finv")
_MGH = "wavepackets.m_gauss_hermite"
LAYER_TABLE = {
    "wavepackets.transform_init_s": _time(_INIT),
    "wavepackets.transform_init_calls": _calls(_INIT),
    "wavepackets.op_apply_s": _time(_APPLY),
    "wavepackets.op_apply_calls": _calls(_APPLY),
    "wavepackets.fft_s": _time(*_FFT),
    "wavepackets.fft_calls": _calls(*_FFT),
    "wavepackets.fft_points": _HOOKED,
    "wavepackets.profile_s": _time("wavepackets.BargmannTransform.profile"),
    "wavepackets.forward_at_s":
        _time("wavepackets.BargmannTransform.forward_at"),
    "wavepackets.packet_samples_s":
        _time("wavepackets.BargmannTransform.packet_samples"),
    "wavepackets.packet_norm_s":
        _time("wavepackets.packet_norm_sq_continuous"),
    "wavepackets.m_gauss_hermite_s": _time(_MGH),
    "wavepackets.m_gauss_hermite_calls": _calls(_MGH),
    "wavepackets.m_gauss_hermite_points": _HOOKED,
    "quantize.band_matrix_s": _time("quantize.BandSubspace.matrix"),
    "quantize.band_matrix_applies": _HOOKED,
    "quantize.hw_operator_norm_s": _time("quantize.hw_operator_norm"),
    "quantize.residual_probe_s": _time("quantize.composition_residual",
                                       "quantize.egorov_residual"),
    "quantize.microlocality_s": _time("quantize.microlocality_probe"),
    "escape.weight_s": _time("escape.weight"),
    "escape.weight_calls": _calls("escape.weight"),
    "escape.weight_covectors": _HOOKED,
    "escape.decay_fit_s": _time("escape.decay_rate_fit"),
    "escape.lower_bound_s": _time("escape.lower_bound_report"),
    "suspension.full_spectrum_s": _time("suspension.full_spectrum"),
    "suspension.orbits": _HOOKED,
    "suspension.wavefront_value_s": _time("suspension.wavefront_value"),
    "suspension.wavefront_value_calls": _calls("suspension.wavefront_value"),
    "fractal_count.evaluate_s": _time("fractal_count.evaluate"),
    "fractal_count.evaluate_calls": _calls("fractal_count.evaluate"),
    "fractal_count.evaluate_points": _HOOKED,
    "fractal_count.box_count_s": _time("fractal_count.box_count"),
    "fractal_count.box_count_calls": _calls("fractal_count.box_count"),
    "fractal_count.lipschitz_s":
        _time("fractal_count.lipschitz_unit_scale_test"),
    "bracket_metric.g_norm_s": _time("bracket_metric.g_norm"),
    "bracket_metric.g_norm_calls": _calls("bracket_metric.g_norm"),
    "bracket_metric.delta_calls": _calls("bracket_metric.delta_perp",
                                         "bracket_metric.delta_par"),
    "bracket_metric.phase_point_calls": _calls("bracket_metric.phase_point"),
    "shift_model.finite_section_s": _time("shift_model.finite_section_report"),
    "shift_model.truth_table_s": _time("shift_model.membership_truth_table"),
}
CRITERIA = 11
CLI_TASKS = tuple(t for w in WORKLOADS.values() for t in w.tasks)


def cli_metric(task: str) -> str:
    return "cli." + task.replace("-", "_") + "_s"


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {cli_metric(t): "s" for t in CLI_TASKS}
    for i in range(1, CRITERIA + 1):
        units[f"acceptance.criterion_{i:02d}_s"] = "s"
    units["acceptance.cpu_s"] = "s"
    units["acceptance.wait_s"] = "s"
    for layer in SELF_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({name: unit for name, (unit, _, _) in LAYER_TABLE.items()})
    units["wavepackets.m_gauss_hermite_distinct_ratio"] = "ratio"
    units["fractal_count.box_count_refused_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fft_points(counts, args, kwargs, result, exc):
    counts["wavepackets.fft_points"] += np.size(args[1])


def _m_gauss_hermite(counts, args, kwargs, result, exc):
    eta = _arg(args, kwargs, 0, "eta_primes")
    p = _arg(args, kwargs, 1, "p")
    d = _arg(args, kwargs, 2, "d")
    nodes = args[3] if len(args) > 3 else kwargs.get("nodes", 32)
    counts["wavepackets.m_gauss_hermite_points"] += np.size(eta) // d
    arr = np.asarray(eta, dtype=float)
    key = (arr.shape, hashlib.sha1(arr.tobytes()).digest(), repr(p), d, nodes)
    counts.setdefault("m_gauss_hermite_args", set()).add(key)


def _band_matrix(counts, args, kwargs, result, exc):
    counts["quantize.band_matrix_applies"] += args[0].size


def _weight(counts, args, kwargs, result, exc):
    counts["escape.weight_covectors"] += np.broadcast(
        _arg(args, kwargs, 0, "xi_u"), _arg(args, kwargs, 1, "xi_s"),
        _arg(args, kwargs, 2, "omega")).size


def _full_spectrum(counts, args, kwargs, result, exc):
    if result is not None:
        counts["suspension.orbits"] += len(result.certificates)


def _evaluate(counts, args, kwargs, result, exc):
    form = _arg(args, kwargs, 0, "form")
    counts["fractal_count.evaluate_points"] += \
        np.size(_arg(args, kwargs, 1, "x")) // form.n


def _box_count(counts, args, kwargs, result, exc):
    # matched by name: this module is also imported where anisospec is not
    if exc is not None and type(exc).__name__ == "ResolutionError":
        counts["box_count_refused"] += 1


HOOKS = {
    _FFT[0]: _fft_points,
    _FFT[1]: _fft_points,
    _MGH: _m_gauss_hermite,
    "quantize.BandSubspace.matrix": _band_matrix,
    "escape.weight": _weight,
    "suspension.full_spectrum": _full_spectrum,
    "fractal_count.evaluate": _evaluate,
    "fractal_count.box_count": _box_count,
}


class _ThreadState:
    def __init__(self, index, n_functions):
        self.index = index
        self.stack = []                 # span ids of the open calls
        self.depth = [0] * n_functions  # open calls per function
        self.recent = []                # the latest spans, as tuples
        self.spans = array("d")         # older spans, flattened rows
        self.cpu = {}                   # function id -> thread CPU seconds
        self.counts = collections.defaultdict(int)

    def flush(self):
        """Move the recent spans (cheap to append) into the compact array."""
        self.spans.fromlist(list(itertools.chain.from_iterable(self.recent)))
        self.recent.clear()


class Tracer:
    """Wraps functions, keeps per-thread spans, and sums them into metrics."""

    def __init__(self):
        self.names = []       # function id -> "module.qualname"
        self.modules = []     # function id -> layer (module short name)
        self.task = 0         # id shared by the spans of one CLI task
        self._span_ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()

    # -- installation ---------------------------------------------------

    def install(self, package, modules):
        """Wrap the public functions of `modules` (short names) and rebind
        them in every module of `package` that holds the originals."""
        targets = []     # (owner, attribute, original, qualified name, layer)
        for short in modules:
            mod = getattr(package, short)
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets.append((mod, attr, obj, f"{short}.{attr}", short))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for name, member in vars(obj).items():
                        keep = not name.startswith("_") or (
                            name == "__init__"
                            and not dataclasses.is_dataclass(obj))
                        if keep and inspect.isfunction(member):
                            targets.append((obj, name, member,
                                            f"{short}.{attr}.{name}", short))
        wrappers = {}    # id(original) -> wrapper
        for owner, attr, fn, qual, short in targets:
            cpu = short == "acceptance" and attr.startswith("criterion_")
            wrappers[id(fn)] = self._wrap(self._register(qual, short), fn,
                                          HOOKS.get(qual), cpu)
            setattr(owner, attr, wrappers[id(fn)])
        for mod in _submodules(package):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, list):
                    obj[:] = [wrappers.get(id(x), x) for x in obj]

    def root(self, name, fn):
        """A wrapper for a task entry point: the root span of one task."""
        return self._wrap(self._register(name, name.split(".")[0]), fn, None,
                          cpu=False)

    def _register(self, name, layer):
        if self._states:
            raise RuntimeError("register every function before tracing starts")
        self.names.append(name)
        self.modules.append(layer)
        return len(self.names) - 1

    def _new_state(self):
        with self._lock:
            st = _ThreadState(len(self._states), len(self.names))
            self._states.append(st)
        self._local.state = st
        return st

    def _wrap(self, fid, fn, hook, cpu):
        tracer, local, ids = self, self._local, self._span_ids
        clock, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = tracer._new_state()
            stack, depth = st.stack, st.depth
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            outer = depth[fid] == 0
            depth[fid] += 1
            result = exc = None
            c0 = thread_time() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                t1 = clock()
                stack.pop()
                depth[fid] -= 1
                recent = st.recent
                recent.append((sid, parent, tracer.task, fid, st.index,
                               t0, t1, outer))
                if len(recent) >= 4096:
                    st.flush()
                if cpu:
                    st.cpu[fid] = st.cpu.get(fid, 0.0) + thread_time() - c0
                if hook is not None:
                    hook(st.counts, args, kwargs, result, exc)

        return wrapper

    # -- results --------------------------------------------------------

    def spans(self) -> np.ndarray:
        """Every span as one row of SPAN_FIELDS, in start order."""
        width = len(SPAN_FIELDS)
        for st in self._states:
            st.flush()
        rows = [np.frombuffer(st.spans, dtype=np.float64).reshape(-1, width)
                for st in self._states]
        spans = np.concatenate(rows) if rows else np.empty((0, width))
        return spans[np.argsort(spans[:, 5], kind="stable")]

    def metrics(self) -> dict:
        """Per-layer metric values (the `trace.overhead_s` excepted)."""
        spans = self.spans()
        n = len(self.names)
        fids = spans[:, 3].astype(np.int64)
        dur = spans[:, 6] - spans[:, 5]
        # a span's children are the spans whose parent_id is its span_id;
        # span ids are unique, so the parent row is found by a sorted search
        order = np.argsort(spans[:, 0])
        has_parent = spans[:, 1] > 0
        parent_row = order[np.searchsorted(spans[order, 0],
                                           spans[has_parent, 1])]
        child = np.bincount(parent_row, weights=dur[has_parent],
                            minlength=len(spans))
        calls = np.bincount(fids, minlength=n)
        incl = np.bincount(fids, weights=dur * spans[:, 7], minlength=n)
        self_s = np.bincount(fids, weights=dur - child, minlength=n)
        cpu = np.zeros(n)
        counts = collections.defaultdict(int)
        for st in self._states:
            for fid, val in st.cpu.items():
                cpu[fid] += val
            for key, val in st.counts.items():
                if isinstance(val, set):
                    counts[key] = counts.get(key, set()) | val
                else:
                    counts[key] += val
        ids = {name: i for i, name in enumerate(self.names)}

        def total(values, names):
            return float(sum(values[ids[f]] for f in names if f in ids))

        out = {cli_metric(t): total(incl, ["cli." + t]) for t in CLI_TASKS}
        crit = [f"acceptance.criterion_{i}" for i in range(1, CRITERIA + 1)]
        for i, name in enumerate(crit, 1):
            out[f"acceptance.criterion_{i:02d}_s"] = total(incl, [name])
        out["acceptance.cpu_s"] = total(cpu, crit)
        out["acceptance.wait_s"] = total(incl, crit) - total(cpu, crit)
        layer_of = np.array(self.modules)
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = float(self_s[layer_of == layer].sum())
        for name, (_, kind, fns) in LAYER_TABLE.items():
            if kind == "time":
                out[name] = total(incl, fns)
            elif kind == "calls":
                out[name] = int(total(calls, fns))
            else:
                out[name] = counts[name]
        mgh = out["wavepackets.m_gauss_hermite_calls"]
        out["wavepackets.m_gauss_hermite_distinct_ratio"] = \
            len(counts.get("m_gauss_hermite_args", ())) / mgh if mgh else 0.0
        boxes = out["fractal_count.box_count_calls"]
        out["fractal_count.box_count_refused_ratio"] = \
            counts["box_count_refused"] / boxes if boxes else 0.0
        return out

    def write_spans(self, path):
        """Write every span (a float64 .npy of SPAN_FIELDS rows) and the
        function names beside it; returns the span count."""
        spans = self.spans()
        np.save(path, spans)
        with open(str(path) + ".names.json", "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "functions": self.names}, fh)
        return len(spans)


def _submodules(package):
    prefix = package.__name__ + "."
    return [package] + [m for name, m in sorted(sys.modules.items())
                        if name.startswith(prefix) and m is not None]
