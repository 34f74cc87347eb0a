"""Benchmark of the anisospec CLI and its layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Run from the repository root; it needs only python3 with numpy and scipy
and imports anisospec from `src/`. A run first spawns SETUP_SAMPLES
interpreters that only import numpy, scipy and every anisospec module, then
runs the workload's tasks in a closed loop, one fresh interpreter per
iteration (see workloads.py): it makes at least one iteration and starts
another only while the mean iteration so far would still end within S
seconds. The tasks' artifacts are checked against the reference after each
iteration.

With --trace 0 it reports the end-to-end metrics: `wall_s` (first task call
to last return, median over iterations), `setup_s` (spawn to ready, median
over every spawn of the run) and `peak_rss_mb` (the iteration's peak
resident set, median). With --trace 1 it alternates untraced and traced
iterations in the same way (at least one of each) and reports the per-layer
metrics of tracer.py (medians over the traced iterations) and
`trace.overhead_s`, the median traced minus the median untraced `wall_s`.
The spans of the last traced iteration are written to perfbench/.work/.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.

--record-reference rewrites reference/ from the current source; selfcheck.py
shows that the correctness gate rejects deliberately altered references.
"""

import os

# BLAS pools are pinned before numpy is imported, here and in every worker.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 8      # set-up-only spawns per run, besides one per iteration
# No iteration starts that would end past DEADLINE_S; a worker still running
# GRACE_S after it is killed, so a run ends within 180 s.
DEADLINE_S = 170.0
GRACE_S = 8.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["RUELLE_THREADS"] = str(nproc())
    return env


def spawn(work, tag, tasks, trace, deadline):
    """Run one worker; returns its result with `setup_s` added."""
    spec = {"src": str(SRC), "tasks": tasks, "trace": trace,
            "result": str(work / f"{tag}.result.json"),
            "spans": str(work / f"{tag}.spans.npy")}
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    log_path = work / f"{tag}.log"
    with log_path.open("w") as log:
        t_spawn = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, deadline + GRACE_S - clock()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{tag}: worker timed out; see {log_path}")
    if proc.returncode != 0:
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"{tag}: worker exited {proc.returncode}\n{tail}")
    result = json.loads(pathlib.Path(spec["result"]).read_text())
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def iteration(work, tag, workload, seed, trace, deadline):
    """One workload iteration; returns the worker result plus `problems`."""
    outdir = work / tag
    tasks = [[t, workloads.task_argv(t, outdir / t, seed)]
             for t in workload.tasks]
    res = spawn(work, tag, tasks, trace, deadline)
    res["problems"] = []
    for rec in res["tasks"]:
        found = workloads.check_task(rec["name"], outdir / rec["name"],
                                     rec["exit_code"], seed)
        rec["failed"] = bool(found)
        res["problems"] += found
    if not res["problems"]:
        shutil.rmtree(outdir)
    return res


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return out.stdout.strip() or "unknown"


def summary(values):
    """(median, q1, q3, n) of the samples; equal samples (counts) come back
    unchanged, not interpolated into floats."""
    if min(values) == max(values):
        return values[0], values[0], values[0], len(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def measure(work, workload, seed, seconds, trace):
    """Set-up samples, then the closed loop; returns the worker results."""
    deadline = clock() + DEADLINE_S
    setups = [spawn(work, f"setup{i}", [], False, deadline)
              for i in range(SETUP_SAMPLES)]
    untraced, measured = [], []
    t_start = clock()
    while True:
        if trace:   # untraced and traced iterations alternate
            untraced.append(iteration(work, f"untraced{len(untraced)}",
                                      workload, seed, False, deadline))
        measured.append(iteration(work, f"iter{len(measured)}", workload,
                                  seed, trace, deadline))
        now = clock()
        step = (now - t_start) / len(measured)
        if now + step > min(t_start + seconds, deadline):
            return setups, untraced, measured


def run(name, seed, seconds, trace):
    workload = workloads.WORKLOADS[name]
    work = WORK / f"{name}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setups, untraced, measured = measure(work, workload, seed, seconds, trace)
    iterations = untraced + measured

    samples = {"setup_s": [s["setup_s"] for s in setups + iterations],
               "wall_s": [r["wall_s"] for r in measured],
               "peak_rss_mb": [r["peak_rss_mb"] for r in measured]}
    units = dict(END_TO_END)
    if trace:
        units = tracer.per_layer_units()
        for metric in units:
            if metric != "trace.overhead_s":
                samples[metric] = [r["layers"][metric] for r in measured]
        samples["trace.overhead_s"] = [
            summary(samples["wall_s"])[0]
            - summary([r["wall_s"] for r in untraced])[0]]
    attempted = sum(len(r["tasks"]) for r in iterations)
    failed = sum(rec["failed"] for r in iterations for rec in r["tasks"])

    print(f"workload {name}: {workload.why}")
    counts = f"{len(measured)} traced and {len(untraced)} untraced" \
        if trace else str(len(measured))
    print(f"tasks: {', '.join(workload.tasks)}; closed loop, one client, "
          f"{counts} iteration(s) within {seconds:g} s")
    print("environment: " + ", ".join(
        f"{k} {v}" for k, v in setups[0]["versions"].items())
        + f", nproc {nproc()}, verify-all workers {setups[0]['workers']}, "
        "OMP/OPENBLAS/MKL_NUM_THREADS 1, "
        f"revision {git_revision()}, seed {seed}")
    idle = []
    for metric, unit in units.items():
        if trace and not any(samples[metric]):
            idle.append(metric)
            continue
        med, q1, q3, n = summary(samples[metric])
        print(f"  {metric} = {med:.6g} {unit} (median of {n}; "
              f"quartiles {q1:.6g} .. {q3:.6g})")
    if idle:
        print(f"  0 (layer not run) in all {len(measured)} samples: "
              + ", ".join(idle))
    print(f"  failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} tasks)")
    for r in iterations:
        print("  task seconds: " + ", ".join(
            f"{t['name']} {t['seconds']:.3f}" for t in r["tasks"]))
        for problem in r["problems"][:20]:
            print(f"  FAILED {problem}")
    if trace:
        spans = work / f"iter{len(measured) - 1}.spans.npy"
        print(f"  {measured[-1]['spans']} spans of the last traced iteration "
              f"in {spans.relative_to(ROOT)}")
    metrics = {m: {"value": summary(samples[m])[0], "unit": u}
               for m, u in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def record_reference():
    """Rewrite reference/ with every task's artifacts at default seeds."""
    work = WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    shutil.rmtree(workloads.REFERENCE, ignore_errors=True)
    ref = workloads.REFERENCE.relative_to(ROOT)   # workers run in ROOT
    seeds = workloads.DEFAULT_SEEDS
    tasks = [[t, workloads.task_argv(t, ref / t, seeds.get(t))]
             for w in workloads.WORKLOADS.values() for t in w.tasks]
    res = spawn(work, "record", tasks, False, clock() + 600.0)
    for rec in res["tasks"]:
        if rec["exit_code"] != 0:
            raise BenchError(f"{rec['name']} exited {rec['exit_code']}")
        print(f"recorded {rec['name']} in {rec['seconds']:.1f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    mode.add_argument("--record-reference", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "anisospec" / "__init__.py").is_file():
        print(f"no anisospec package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
            return 0
        run(args.workload, args.seed, args.seconds, args.trace)
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
