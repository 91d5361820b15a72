"""Workload inputs and operations of the fracbessel benchmark.

Inputs come from the seed alone and are made with numpy and the standard
library, so they can be regenerated without importing fracbessel:

    python3 bench/workloads.py --workload cli-tabulated --seed 3 --out DIR

writes the config (and CSV, or argument sets) a round of that workload
would use into DIR.

Every workload runs at the default operator of the README
(alpha1, theta, alpha2, beta2, mu) = (0.7, 0.2, 1.5, 1.2, 0.5), T = 1 and
one non-local point (0.6, -1).  The seed moves only the forcing
coefficients (and, for the library workloads, the sample points); it
never moves the operator, because the cost and the verdicts of every
stage depend on the operator.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-default", "cli-tabulated", "solve-large-n", "ml-regimes")

OPERATOR = {"alpha1": 0.7, "theta": 0.2, "alpha2": 1.5, "beta2": 1.2,
            "mu": 0.5}
T = 1.0
POINTS = [[0.6, -1.0]]

# A full README run (N=50, ten verified modes) takes about 38 s.  A
# comparison makes 92 runs of 30 s within 3420 s, and a run needs about
# three rounds for a steady median, so a round gets about ten seconds:
# the CLI workloads keep every check but verify one mode at N=10.
CLI_MODES = 10
CLI_VERIFY_MODES = 1
TAB_NX, TAB_NT = 41, 33  # samples of the tabulated forcing in x and t

# solve-large-n: the mode count where per-mode projection rules dominate
# the solve, and the (x, t) grid the field is evaluated on.
LARGE_N = 64
FIELD_NX, FIELD_NT = 201, 12

# ml-regimes: passes over every argument set in one round.  A pass
# lasts about 2.5 s, so a run takes several passes spread over its
# length, and each pass is a sample of run_s.
ML_PASSES = 3

# ml-regimes: (alpha, beta) pairs the solver needs at the default
# operator: alpha1 = 0.7 forward, delta2 = 1.35 backward.
ML_PAIRS = ((0.7, 1.0), (0.7, 0.7), (1.35, 1.35), (1.35, 0.6), (1.35, 1.6))
# |z| ranges (negative axis) that the evaluator serves from one regime
# only, checked against its dispatch for every pair above, and the
# number of points per set, sized so that no set takes much more than
# half a second.
ML_BANDS = {
    "series": ((1e-3, 2.0), 100_000),
    "band": ((3.6, 9.5), 4_000),         # contour quadrature, alpha < 1
    "sharp_band": ((9.0, 90.0), 4_000),  # contour with dip fans, alpha > 1
    "asymptotic": ((1e4, 1e6), 50_000),
}
ML_CHECK_POINTS = 6     # mpmath points per set (moderate |z| only)
ML_IDENTITY_POINTS = 128


def _rng(seed: int, workload: str):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# ---------------------------------------------------------------------------
# inputs


def builtin_forcing(seed: int) -> dict:
    """README forcing with a seeded slope of the time factor.

    The slope stays at or below the README's 0.5, so the solution never
    grows past the README instance whose verification margins are known.
    """
    slope = 0.4 + 0.1 * float(_rng(seed, "cli-default").random())
    return {"kind": "separable_builtin", "space_poly": [1.0],
            "time_poly": [1.0, slope]}


def tabulated_profile(seed: int):
    """Coefficients (s, c) of f = x^4 (1-x)^3 (1 + s x) (1 + c t).

    s in [-0.3, 0] and c in [0.4, 0.5] keep f at or below the README
    forcing, as builtin_forcing does.
    """
    r = _rng(seed, "cli-tabulated").random(2)
    return -0.3 * float(r[0]), 0.4 + 0.1 * float(r[1])


def tabulated_value(x, t, s: float, c: float):
    x = np.asarray(x, dtype=float)
    return x ** 4 * (1.0 - x) ** 3 * (1.0 + s * x) * (1.0 + c * np.asarray(t))


def tabulated_grid():
    return np.linspace(0.0, 1.0, TAB_NX), np.linspace(-T, T, TAB_NT)


def cli_config(forcing: dict) -> dict:
    return {
        "problem": {"operator": dict(OPERATOR), "T": T,
                    "nonlocal_points": POINTS, "forcing": forcing,
                    "N": CLI_MODES},
        "flags": {"verify_modes": CLI_VERIFY_MODES},
    }


def write_cli_inputs(workload: str, seed: int, out: Path) -> Path:
    """Write the config (and forcing CSV) of a CLI workload; return its path."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "cli-default":
        forcing = builtin_forcing(seed)
    else:
        s, c = tabulated_profile(seed)
        xs, ts = tabulated_grid()
        rows = ["x,t,f"]
        for x in xs.tolist():
            for t in ts.tolist():
                f = float(tabulated_value(x, t, s, c))
                rows.append(f"{x!r},{t!r},{f!r}")
        (out / "forcing.csv").write_text("\n".join(rows) + "\n")
        forcing = {"kind": "tabulated", "csv": "forcing.csv"}
    path = out / "config.json"
    path.write_text(json.dumps(cli_config(forcing), indent=1) + "\n")
    return path


def field_times(seed: int) -> np.ndarray:
    """FIELD_NT times, half on each side of t = 0, jittered by the seed."""
    half = FIELD_NT // 2
    jitter = _rng(seed, "solve-large-n").uniform(-0.02, 0.02, FIELD_NT)
    base = np.concatenate([np.linspace(-T, -0.1 * T, half),
                           np.linspace(0.1 * T, T, FIELD_NT - half)])
    return np.clip(base + jitter * T, -T, T)


def ml_sets(seed: int) -> list:
    """Seeded negative arguments: (alpha, beta, band, z) for every set."""
    rng = _rng(seed, "ml-regimes")
    sets = []
    for band, ((lo, hi), size) in ML_BANDS.items():
        for a, b in ML_PAIRS:
            if (band == "band" and a > 1.0) or (band == "sharp_band"
                                                and a < 1.0):
                continue
            z = -np.exp(rng.uniform(math.log(lo), math.log(hi), size))
            sets.append((a, b, band, z))
    return sets


# ---------------------------------------------------------------------------
# operations (fracbessel is imported by the worker before these run)


def prepare(workload: str, seed: int, out: Path) -> dict:
    """Benchmark-side inputs of a round (not timed)."""
    state = {"workload": workload, "seed": seed, "out": out}
    if workload == "ml-regimes":
        state["arguments"] = ml_sets(seed)
    return state


def setup(state: dict) -> None:
    """Build the program's inputs; the worker times this as set-up."""
    import fracbessel
    import fracbessel.cli as cli
    w = state["workload"]
    if w.startswith("cli-"):
        state["cfg"] = cli.parse_config(state["out"] / "config.json")
    elif w == "solve-large-n":
        state["spec"] = library_spec(builtin_forcing(state["seed"]), LARGE_N)
    else:
        state["sets"] = [(fracbessel.MLParams(a, b), band, z)
                         for a, b, band, z in state["arguments"]]


def library_spec(forcing: dict, n: int):
    from fracbessel.fracops import OperatorParams
    from fracbessel.solver import Forcing, ProblemSpec
    return ProblemSpec(
        op=OperatorParams(**OPERATOR), T=T,
        nonlocal_points=tuple(tuple(p) for p in POINTS),
        forcing=Forcing(kind=forcing["kind"],
                        space_poly=tuple(forcing["space_poly"]),
                        time_poly=tuple(forcing["time_poly"])),
        N=n)


def run(state: dict, tracer) -> dict:
    """One round of the workload's operations.

    Returns attempted and failed operation counts and the samples of
    run_s and of ml_points_per_s, the points evaluated inside
    mittag_leffler over the time spent there.  Calls go through module
    attributes so that the tracer's wrappers see them.
    """
    w = state["workload"]
    if w.startswith("cli-"):
        result = _run_cli(state)
    elif w == "solve-large-n":
        result = _run_large(state)
    else:
        return _run_ml(state)
    result["ml_points_per_s"] = [
        tracer.counts["ml_points"]
        / tracer.summary()["specfun.mittag_leffler"]["total_s"]]
    return result


def _run_cli(state) -> dict:
    import fracbessel.cli as cli
    t0 = time.perf_counter()
    try:
        rc = cli.run(state["cfg"], out_dir=state["out"] / "artifacts")
    except Exception as exc:  # counted as a failed operation
        print(f"cli.run raised {exc!r}", file=sys.stderr)
        rc = -1
    run_s = time.perf_counter() - t0
    state["rc"] = rc
    return {"attempted": 1, "failed": int(rc != 0), "run_s": [run_s]}


def _run_large(state) -> dict:
    """solve_modes at LARGE_N, cold, then u, u_x, u_xx on the dense grid.

    solve_s and field_points_per_s are reported besides run_s.
    """
    import fracbessel.solver as solver
    xs = np.linspace(0.0, 1.0, FIELD_NX)
    ts = field_times(state["seed"])
    t0 = time.perf_counter()
    sol = solver.solve_modes(state["spec"])
    t1 = time.perf_counter()
    field = []
    for t in ts:
        u = solver.eval_u(sol, xs, float(t))
        ux, uxx = solver.eval_u_derivatives(sol, xs, float(t))
        field.append((u, ux, uxx))
    t2 = time.perf_counter()
    state.update(sol=sol, xs=xs, field=field)
    return {"attempted": 1 + 2 * len(ts), "failed": 0, "run_s": [t2 - t0],
            "solve_s": [t1 - t0],
            "field_points_per_s": [xs.size * len(ts) / (t2 - t1)]}


def _run_ml(state) -> dict:
    """ML_PASSES passes over every argument set; each pass is a sample."""
    import fracbessel
    points = sum(z.size for _p, _band, z in state["sets"])
    passes = []
    for _ in range(ML_PASSES):
        values = []
        pass_s = 0.0
        for p, _band, z in state["sets"]:
            t0 = time.perf_counter()
            values.append(fracbessel.mittag_leffler(p, z))
            pass_s += time.perf_counter() - t0
        passes.append(pass_s)
    state["values"] = values
    return {"attempted": ML_PASSES * len(state["sets"]), "failed": 0,
            "run_s": passes,
            "ml_points_per_s": [points / pass_s for pass_s in passes]}


# ---------------------------------------------------------------------------
# layer metrics of a traced round


def layer_metrics(tracer) -> dict:
    s = tracer.summary()
    c = tracer.counts

    def self_s(*labels):
        return sum(s[lab]["self_s"] for lab in labels)

    def calls(*labels):
        return sum(s[lab]["calls"] for lab in labels)

    def rate(points, secs):
        return points / secs if secs > 0.0 else 0.0

    ml_pts = c["ml_points"]
    out = {
        "specfun.ml_calls": calls("specfun.mittag_leffler"),
        "specfun.ml_points": ml_pts,
        "specfun.ml_unique_ratio": c["ml_unique"] / ml_pts if ml_pts else 0.0,
        "specfun.ml_self_s": self_s("specfun.mittag_leffler"),
        "specfun.ml_points_per_s": rate(ml_pts,
                                        self_s("specfun.mittag_leffler")),
    }
    for band in ML_BANDS:
        out[f"specfun.{band}.points_per_s"] = rate(c[f"ml.{band}.points"],
                                                   c[f"ml.{band}.s"])
    rules = ("quadrature.gauss_jacobi_rule", "quadrature.gauss_legendre_rule")
    evals = ("solver.eval_u", "solver.eval_u_derivatives")
    out.update({
        "quadrature.rule_calls": c["rule_calls"],
        "quadrature.rule_builds": c["rule_builds"],
        "quadrature.rule_self_s": self_s(*rules),
        "spectrum.eigen_self_s": self_s("spectrum.eigenvalue_table",
                                        "spectrum.bessel_zero"),
        "spectrum.projection_calls": calls("spectrum.fourier_bessel_coeff"),
        "spectrum.projection_self_s": self_s("spectrum.fourier_bessel_coeff"),
        "solver.solve_modes_s": s["solver.solve_modes"]["total_s"],
        "solver.modes_solved": c["modes_solved"],
        "solver.delta_calls": calls("solver.compute_Delta_k"),
        "solver.delta_self_s": self_s("solver.compute_Delta_k"),
        "solver.fk_calls": calls("solver.compute_Fk"),
        "solver.fk_self_s": self_s("solver.compute_Fk"),
        "solver.eval_calls": calls(*evals),
        "solver.eval_points": c["eval_points"],
        "solver.eval_self_s": self_s(*evals),
        "fracops.rl_integral_calls": calls("fracops.rl_integral_right"),
        "fracops.rl_integral_self_s": self_s("fracops.rl_integral_right"),
        "fracops.caputo_self_s": self_s("fracops.hyper_bessel_caputo"),
        "fracops.hilfer_self_s": self_s("fracops.bi_ordinal_hilfer"),
        "verify.verify_s": s["verify.verify_solution"]["total_s"],
    })
    for check in ("boundary", "gluing", "nonlocal", "mode_odes",
                  "delta_asymptote", "decay_rates"):
        out[f"verify.{check}_s"] = self_s(f"verify.check_{check}")
    out["verify.worst_margin"] = c["verify_worst_margin"]
    out["cli.parse_s"] = s["cli.parse_config"]["total_s"]
    # every solve and verification of a CLI round runs inside cli.run
    out["cli.artifacts_s"] = (s["cli.run"]["total_s"]
                              - s["solver.solve_modes"]["total_s"]
                              - s["verify.verify_solution"]["total_s"]
                              if s["cli.run"]["calls"] else 0.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="write the inputs of one benchmark workload")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload.startswith("cli-"):
        path = write_cli_inputs(args.workload, args.seed, args.out)
        print(path)
    elif args.workload == "solve-large-n":
        path = args.out / "field.json"
        path.write_text(json.dumps({
            "forcing": builtin_forcing(args.seed), "N": LARGE_N,
            "x": np.linspace(0.0, 1.0, FIELD_NX).tolist(),
            "t": field_times(args.seed).tolist()}) + "\n")
        print(path)
    else:
        path = args.out / "ml_sets.npz"
        sets = ml_sets(args.seed)
        np.savez(path, **{f"{band}_a{a}_b{b}": z for a, b, band, z in sets})
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
