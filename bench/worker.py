"""One round of a benchmark workload, in a fresh process.

Started by run.py, which has written the CLI inputs.  It imports
fracbessel and builds the program's inputs (together timed as set-up),
runs the workload's operations once, checks the outputs, and prints one
JSON line with its figures.

The process keeps to nproc threads: run.py starts it with every BLAS
pool at one thread.  A second OpenBLAS thread for the eigensolves behind
Gauss-Legendre rule builds saves nothing at these sizes, and while
another process holds the other core it made a 4 s solve take 31 s.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A plain round wraps only mittag_leffler, to count its points and time
# inside cli.run and the solver; a call costs about a microsecond more.
LIGHT = frozenset({"specfun.mittag_leffler"})


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_count() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import fracbessel  # noqa: F401
    import fracbessel.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    sys.path.insert(0, str(HERE))
    import workloads as wl
    from spans import Tracer
    tracer = (Tracer() if args.trace else
              Tracer(only=LIGHT, detail=False)).install()

    state = wl.prepare(args.workload, args.seed, args.out)
    t0 = time.perf_counter()
    wl.setup(state)
    setup_s = import_s + time.perf_counter() - t0

    result = wl.run(state, tracer)
    tracer.uninstall()  # the checks below are not traced
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = thread_count()

    import checks
    found = checks.run_checks(state)
    found.append(("threads_within_nproc", threads <= nproc(),
                  f"{threads} threads, nproc {nproc()}"))

    doc = dict(result, setup_s=setup_s, peak_rss_mb=peak_mib,
               checks=[{"name": n, "passed": bool(ok), "detail": d}
                       for n, ok, d in found])
    if args.trace:
        doc["layers"] = wl.layer_metrics(tracer)
        tracer.write(args.out / "trace.json.gz")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
