"""Benchmark workloads and the correctness gate.

Each workload is a fixed list of `anisospec` CLI tasks at their default
configs, run one after the other by one client (a closed loop) in a fresh
interpreter per iteration. A fresh interpreter matters: every CLI
invocation pays the m-lattice build in `BargmannTransform.__init__`, which
is memoised in a module-global cache, so a second in-process iteration
would measure a different program.

A task passes when it exits 0 and its artifacts match the reference in
`reference/<task>/`, recorded at the commit that introduced this benchmark
with `python3 perfbench/run.py --record-reference`. Numbers may differ by
at most REL_TOL relative; strings, ints and bools must match exactly. The
manifest's `output_dir` and the runtime fields of `verify-all` detail
strings are removed before comparing. A task that reads the workload seed
is compared with the reference only at its default seed; at other seeds it
must exit 0, write the same files with the same structure, echo the seed
in its manifest and set its own pass fields.
"""

from __future__ import annotations

import csv
import json
import pathlib
import re
from dataclasses import dataclass

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-12

# Tasks that read `--seed`, with their default seed.
DEFAULT_SEEDS = {"resolution-check": 5, "weyl-boxes": 3}
# Fields a task sets to say it passed, per artifact.
PASS_FIELDS = {"resolution-check": {"resolution.json": ("decreasing", "pass")}}

_RUNTIME = re.compile(r", runtime [0-9.]+s \(< [0-9.e+]+s\)")


@dataclass(frozen=True)
class Workload:
    tasks: tuple
    why: str


WORKLOADS = {
    "cli": Workload(
        tasks=("resolution-check", "quantize-probes", "toy", "suspension",
               "escape-sweep", "weyl-boxes"),
        why="every CLI subcommand but verify-all: the transform and "
            "anti-Wick grids (wavepackets, quantize) and the closed-form "
            "certificates and counts"),
    "acceptance": Workload(
        tasks=("verify-all",),
        why="the acceptance suite on a thread pool of nproc workers: "
            "pointwise m_gauss_hermite, per-pair Python loops, criteria "
            "competing for CPU and the GIL"),
}


def task_argv(task: str, outdir, seed: int) -> list:
    """CLI arguments of one task; `seed` reaches only tasks that read it."""
    argv = [task, "--output-dir", str(outdir)]
    if task in DEFAULT_SEEDS:
        argv += ["--seed", str(seed)]
    return argv


def check_task(task, outdir, exit_code, seed, reference=REFERENCE) -> list:
    """Problems found in one task's run; an empty list means it passed."""
    if exit_code != 0:
        return [f"{task}: exit code {exit_code}"]
    ref, out = pathlib.Path(reference) / task, pathlib.Path(outdir)
    problems = _compare_file_sets(ref, out)
    if problems:
        return [f"{task}: {p}" for p in problems]
    seeded = task in DEFAULT_SEEDS and seed != DEFAULT_SEEDS[task]
    for path in sorted(ref.iterdir()):
        want, got = load_artifact(path), load_artifact(out / path.name)
        if seeded:
            found = _seeded_problems(task, path.name, want, got, seed)
        else:
            found = []
            diff(want, got, path.name, found)
        problems += [f"{task}: {p}" for p in found]
    return problems


def load_artifact(path):
    """A JSON or CSV artifact as plain data, run-specific fields removed."""
    path = pathlib.Path(path)
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            return [[_cell(c) for c in row] for row in csv.reader(fh)]
    return normalize(path.name, json.loads(path.read_text()))


def normalize(name, data):
    """Drop the run-specific fields of a JSON artifact."""
    if name == "manifest.json":
        data["config"].pop("output_dir", None)
    if name == "results.json":
        for rec in data:
            rec["detail"] = _RUNTIME.sub("", rec["detail"])
    return data


def _cell(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _compare_file_sets(ref, out):
    want = {p.name for p in ref.iterdir()}
    got = {p.name for p in out.iterdir()} if out.is_dir() else set()
    return [f"missing {n}" for n in sorted(want - got)] + \
        [f"unexpected {n}" for n in sorted(got - want)]


def diff(want, got, where, problems):
    """Append to `problems` every place where `got` differs from `want`."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            problems.append(f"{where}: keys {sorted(want)} != {sorted(got)}")
            return
        for key in want:
            diff(want[key], got[key], f"{where}.{key}", problems)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            problems.append(f"{where}: length {len(want)} != {len(got)}")
            return
        for i, (w, g) in enumerate(zip(want, got)):
            diff(w, g, f"{where}[{i}]", problems)
    elif type(want) is float and type(got) is float:
        if not _close(want, got):
            problems.append(f"{where}: {want!r} != {got!r}")
    elif type(want) is not type(got) or want != got:
        problems.append(f"{where}: {want!r} != {got!r}")


def _close(a, b):
    if a == b or (a != a and b != b):
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _skeleton(obj):
    if isinstance(obj, dict):
        return {k: _skeleton(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return "list"
    if isinstance(obj, bool):
        return "bool"
    if isinstance(obj, (int, float)):
        return "number"
    return type(obj).__name__


def _seeded_problems(task, name, want, got, seed):
    """Checks of a seeded task's artifact at a non-default seed."""
    if name.endswith(".csv"):
        if not got or got[0] != want[0]:
            return [f"{name}: header {got[:1]} != {want[:1]}"]
        width = len(want[0])
        bad = sum(len(row) != width for row in got)
        return [f"{name}: {bad} rows with a wrong width"] if bad else []
    if _skeleton(want) != _skeleton(got):
        return [f"{name}: structure differs from the reference"]
    problems = []
    if name == "manifest.json" and got["config"].get("seed") != seed:
        problems.append(f"{name}: seed {got['config'].get('seed')} != {seed}")
    for field in PASS_FIELDS.get(task, {}).get(name, ()):
        if got[field] is not True:
            problems.append(f"{name}: {field} is {got[field]!r}")
    return problems
