"""Show that the benchmark's correctness gate can fail.

    python3 perfbench/selfcheck.py

Runs `toy`, `suspension` and `escape-sweep` once, checks their artifacts
against the true reference (they must pass), then against copies of the
reference with one deliberate alteration each (they must fail, except a
change within the 1e-12 relative tolerance). It also checks the rules
for a seeded task at a non-default seed, and that a `verify-all` detail
string may differ in its runtime field but nowhere else. Exits 0 when
every verdict is as expected, 1 otherwise.
"""

import json
import shutil
import sys

import run
import workloads

TASKS = ("toy", "suspension", "escape-sweep")


def _scale(key, factor):
    return lambda d: d.update({key: d[key] * factor})


# (task, artifact, what changes, change, whether the gate must fail);
# a change of None removes the file
ALTERATIONS = [
    ("toy", "toy.json", "number off by 1e-9 relative",
     _scale("essential_radius", 1 + 1e-9), True),
    ("toy", "toy.json", "number off by 1e-14 relative",
     _scale("essential_radius", 1 + 1e-14), False),
    ("toy", "toy.json", "string changed",
     lambda d: d["memberships"].update(U="not_member"), True),
    ("toy", "toy.json", "bool flipped",
     lambda d: d.update(w0_found_in_section=not d["w0_found_in_section"]),
     True),
    ("toy", "toy.json", "key removed",
     lambda d: d.pop("eigencheck_residuals"), True),
    ("escape-sweep", "manifest.json", "int changed",
     lambda d: d["config"].update(grid_points=d["config"]["grid_points"] + 1),
     True),
    ("suspension", "certificates.csv", "CSV number off by 1e-9 relative",
     lambda rows: rows[1].__setitem__(2, rows[1][2] * (1 + 1e-9)), True),
    ("suspension", "certificates.csv", "CSV string changed",
     lambda rows: rows[1].__setitem__(3, "false"), True),
    ("escape-sweep", "weight_field.csv", "CSV row removed",
     lambda rows: rows.pop(), True),
    ("escape-sweep", "summary.json", "file removed", None, True),
]


def _write_csv(path, rows):
    path.write_text("".join(
        ",".join(repr(c) if isinstance(c, float) else str(c) for c in row)
        + "\n" for row in rows))


def _report(label, problems, should_fail):
    good = bool(problems) == should_fail
    print(f"{'ok ' if good else 'BAD'} {label}: "
          f"{problems[0] if problems else 'passed'}")
    return good


def main():
    if not (run.SRC / "anisospec" / "__init__.py").is_file():
        print(f"no anisospec package under {run.SRC}", file=sys.stderr)
        return 2
    work = run.WORK / "self-check"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"
    res = run.spawn(work, "tasks",
                    [[t, workloads.task_argv(t, out / t, 0)] for t in TASKS],
                    False, run.clock() + 120.0)
    codes = {r["name"]: r["exit_code"] for r in res["tasks"]}

    def check(task, reference):
        return workloads.check_task(task, out / task, codes[task], 0,
                                    reference)

    ok = True
    for task in TASKS:
        ok &= _report(f"{task} against the reference",
                      check(task, workloads.REFERENCE), False)
    for i, (task, name, label, change, should_fail) in enumerate(ALTERATIONS):
        ref = work / f"ref{i}"
        shutil.copytree(workloads.REFERENCE / task, ref / task)
        path = ref / task / name
        if change is None:
            path.unlink()
        elif name.endswith(".csv"):
            rows = workloads.load_artifact(path)
            change(rows)
            _write_csv(path, rows)
        else:
            data = json.loads(path.read_text())
            change(data)
            path.write_text(json.dumps(data))
        ok &= _report(f"{task}/{name} {label}", check(task, ref), should_fail)

    # a seeded task at another seed: exit 0, its seed echoed, its pass fields
    for seed_echoed, passed, should_fail in ((True, True, False),
                                             (False, True, True),
                                             (True, False, True)):
        got = work / f"seeded-{seed_echoed}-{passed}"
        shutil.copytree(workloads.REFERENCE / "resolution-check", got)
        manifest = json.loads((got / "manifest.json").read_text())
        manifest["config"]["seed"] = 6 if seed_echoed else 5
        (got / "manifest.json").write_text(json.dumps(manifest))
        summary = json.loads((got / "resolution.json").read_text())
        summary["pass"] = passed
        (got / "resolution.json").write_text(json.dumps(summary))
        problems = workloads.check_task("resolution-check", got, 0, 6)
        ok &= _report(f"resolution-check at seed 6, seed echoed "
                      f"{seed_echoed}, pass {passed}", problems, should_fail)

    results = workloads.REFERENCE / "verify-all" / "results.json"
    want = workloads.load_artifact(results)
    for label, edit, should_fail in (
            ("runtime field", lambda d: d + ", runtime 9.9s (< 5s)", False),
            ("number", lambda d: d.replace("e-", "e+", 1), True)):
        got = json.loads(results.read_text())
        got[1]["detail"] = edit(got[1]["detail"])
        problems = []
        workloads.diff(want, workloads.normalize("results.json", got),
                       "results.json", problems)
        ok &= _report(f"verify-all detail {label} changed", problems,
                      should_fail)
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
