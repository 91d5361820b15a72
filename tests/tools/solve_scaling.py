"""Time one library solve at a given mode count and report its peak RSS.

Run from the repository root, one process per mode count so that each
peak RSS belongs to that solve alone:

    OPENBLAS_NUM_THREADS=1 python3 tests/tools/solve_scaling.py 200
    OPENBLAS_NUM_THREADS=1 python3 tests/tools/solve_scaling.py 1000

The problem is the README operator, T = 1, one non-local point
(0.6, -1) and the builtin forcing x^4 (1-x)^3 (1 + 0.45 t), the same as
the benchmark's solve-large-n workload at its middle slope.  The last
line of output is one JSON object with N, solve_modes_s, coefficients_s,
delta_s, fk_s and peak_rss_mb.  coefficients_s, delta_s and fk_s are the
parts of the solve spent in ``solver._mode_coefficient_callables`` (the
data projection), ``solver.compute_Delta_k`` and ``solver.compute_Fk``,
each timed by a wrapper installed on the module from outside; nothing in
the package changes.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from fracbessel import solver  # noqa: E402
from fracbessel.fracops import OperatorParams  # noqa: E402
from fracbessel.solver import Forcing, ProblemSpec, solve_modes  # noqa: E402


def _timed(fn, spent: list):
    """fn, adding the seconds of each call to spent[0]."""
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0
    return wrapper


def main(argv) -> int:
    n = int(argv[1])
    spec = ProblemSpec(
        op=OperatorParams(alpha1=0.7, theta=0.2, alpha2=1.5, beta2=1.2,
                          mu=0.5),
        T=1.0, nonlocal_points=((0.6, -1.0),),
        forcing=Forcing(space_poly=(1.0,), time_poly=(1.0, 0.45)), N=n)
    spent = {name: [0.0] for name in ("_mode_coefficient_callables",
                                      "compute_Delta_k", "compute_Fk")}
    for name, total in spent.items():
        setattr(solver, name, _timed(getattr(solver, name), total))
    t0 = time.perf_counter()
    sol = solve_modes(spec)
    elapsed = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"N": len(sol.modes), "solve_modes_s": round(elapsed, 3),
                      "coefficients_s": round(
                          spent["_mode_coefficient_callables"][0], 4),
                      "delta_s": round(spent["compute_Delta_k"][0], 4),
                      "fk_s": round(spent["compute_Fk"][0], 4),
                      "peak_rss_mb": round(rss, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
