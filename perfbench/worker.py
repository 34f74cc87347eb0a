"""One workload iteration in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC holds `src` (the directory that holds the anisospec package), `tasks`
(a list of [name, argv] for `anisospec.cli.main`), `trace` (bool),
`result` (where to write the result JSON) and, when tracing, `spans`.

The worker imports numpy, scipy and every anisospec module, notes the
monotonic clock (the parent noted it just before the spawn, so the
difference is the set-up time), then runs the tasks one after the other
and writes the result. With no tasks it only measures set-up. Tracing is
installed after the ready mark, so it never counts as set-up.
"""

import importlib
import json
import pathlib
import pkgutil
import resource
import sys
import time
import traceback


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    spec = json.loads(pathlib.Path(sys.argv[1]).read_text())
    src = pathlib.Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import anisospec
    if pathlib.Path(anisospec.__file__).resolve().parent != src / "anisospec":
        raise SystemExit(f"anisospec imported from {anisospec.__file__}, "
                         f"not from {src}")
    for info in pkgutil.iter_modules(anisospec.__path__):
        if info.name != "__main__":
            importlib.import_module("anisospec." + info.name)
    from anisospec import cli
    t_ready = clock()

    result = {"t_ready": t_ready, "tasks": [],
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "anisospec": anisospec.__version__},
              "workers": cli.thread_cap()}
    tracer = None
    runners = [cli.main] * len(spec["tasks"])
    if spec["trace"] and spec["tasks"]:
        from tracer import WRAPPED, Tracer
        tracer = Tracer()
        tracer.install(anisospec, WRAPPED)
        runners = [tracer.root("cli." + name, cli.main)
                   for name, _ in spec["tasks"]]

    t_first = clock()
    for index, ((name, argv), run) in enumerate(zip(spec["tasks"], runners)):
        if tracer is not None:
            tracer.task = index + 1
        t0 = clock()
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
        result["tasks"].append({"name": name, "exit_code": code,
                                "seconds": clock() - t0})
    result["wall_s"] = clock() - t_first
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.write_spans(spec["spans"])
    pathlib.Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
