"""Output checks against computations made apart from the program.

Reference values come from mpmath series at raised precision, from
scipy (Bessel zeros, adaptive quadrature, erfcx), and from properties
the outputs must have (the zero wall value, forcing-independence of the
determinants, the Mittag-Leffler recurrence in beta).  Nothing is
compared against a stored copy of an earlier run.

Each check returns (name, passed, detail).
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import integrate, special

import workloads as wl

# Tolerances.  The program promises ~1e-12 relative accuracy for
# Mittag-Leffler values and refines projections to 1e-8; the gates
# below sit well outside what a correct program produces and well
# inside what a wrong formula or a lost regime would.
EIGEN_RTOL = 1e-13
DELTA_RTOL = 1e-10
COEFF_RTOL = 1e-8
WALL_RTOL = 1e-10
ML_RTOL = 1e-10
# E_{1.35,b} oscillates on the negative axis; next to one of its zeros a
# relative gap measures the conditioning, not the evaluator, so values
# below ML_FLOOR are held to ML_RTOL * ML_FLOOR absolute instead.
ML_FLOOR = 1e-3
IDENTITY_RTOL = 1e-9

REFERENCE_CACHE = Path(__file__).resolve().parent / "out" / "reference.json"


def ml_mp(a: float, b: float, z: float) -> float:
    """E_{a,b}(z) by its power series in mpmath.

    The precision grows with the largest term, about exp(|z|^{1/a}),
    so the alternating sum keeps 30 significant digits.  The gamma
    arguments are formed in mpmath too: a float a*n would carry a
    relative error that the cancellation multiplies by the same factor.
    """
    digits = 30 + int(abs(z) ** (1.0 / a) / math.log(10.0))
    with mp.workdps(digits):
        am, bm, zz = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        total = mp.mpf(0)
        term_cap = mp.mpf(10) ** (-digits)
        n = 0
        while True:
            term = zz ** n * mp.rgamma(am * n + bm)
            total += term
            if n > abs(z) ** (1.0 / a) / a + 10 and abs(term) < term_cap:
                break
            n += 1
        return float(total)


def delta_mp(lam: float, spec_op: dict, points, T: float) -> float:
    """Mode determinant from the paper's formula, Mittag-Leffler by mpmath."""
    a1, th = spec_op["alpha1"], spec_op["theta"]
    a2, b2, mu = spec_op["alpha2"], spec_op["beta2"], spec_op["mu"]
    p = 1.0 - th
    d2 = b2 + mu * (a2 - b2)
    pa = p ** a1 * math.gamma(a1)
    total = 0.0
    for p_i, xi in points:
        z = -lam ** 2 * (-xi) ** d2
        total += p_i * (ml_mp(d2, 1.0, z)
                        + lam ** 2 * (-xi) / pa * ml_mp(d2, 2.0, z))
    zT = -(lam ** 2 / p ** a1) * T ** (a1 * p)
    return total - ml_mp(a1, 1.0, zT)


def _projection_ref(lam: float, profile, breaks=None) -> float:
    """(2 / J1(lam)^2) int_0^1 x f(x) J0(lam x) dx by adaptive quadrature."""
    val, _ = integrate.quad(lambda x: x * profile(x) * special.j0(lam * x),
                            0.0, 1.0, points=breaks, limit=800,
                            epsabs=1e-15, epsrel=1e-13)
    return 2.0 * val / special.j1(lam) ** 2


# ---------------------------------------------------------------------------
# solver outputs


def check_eigenvalues(lams) -> tuple:
    ref = special.jn_zeros(0, len(lams))
    err = float(np.max(np.abs(np.asarray(lams) - ref) / ref))
    return ("eigenvalues_vs_jn_zeros", err <= EIGEN_RTOL,
            f"max relative gap {err:.2e} over {len(lams)} zeros")


def delta_reference() -> list:
    """Delta_1..Delta_3 by mpmath, computed once per checkout.

    The alpha1 = 0.7 series at Delta_3 needs ~290 digits and takes
    about two seconds, so the values are kept in bench/out/ under a key
    naming every input they depend on.
    """
    lams = [float(v) for v in special.jn_zeros(0, 3)]
    key = json.dumps([wl.OPERATOR, wl.POINTS, wl.T, lams])
    path = REFERENCE_CACHE
    if path.is_file():
        doc = json.loads(path.read_text())
        if doc.get("key") == key:
            return doc["deltas"]
    deltas = [delta_mp(lam, wl.OPERATOR, wl.POINTS, wl.T) for lam in lams]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"key": key, "deltas": deltas}))
    tmp.replace(path)
    return deltas


def check_deltas(deltas) -> tuple:
    worst = 0.0
    for ref, d in zip(delta_reference(), deltas[:3]):
        worst = max(worst, abs(d - ref) / max(1.0, abs(ref)))
    return ("delta_1_3_vs_mpmath", worst <= DELTA_RTOL,
            f"max gap {worst:.2e}")


def check_coefficients(sol, profile_at, times, breaks=None) -> tuple:
    """f_k(t) of a sample of modes against quadrature of f(., t)."""
    n = len(sol.modes)
    ks = sorted({1, (n + 1) // 2, n})
    lams = special.jn_zeros(0, n)
    worst = 0.0
    scale = 0.0
    rows = []
    for t in times:
        ref1 = _projection_ref(lams[0], profile_at(t), breaks)
        scale = max(scale, abs(ref1))
        for k in ks:
            ref = ref1 if k == 1 else _projection_ref(lams[k - 1],
                                                      profile_at(t), breaks)
            got = float(np.asarray(sol.modes[k - 1].f_k(t)))
            rows.append((got, ref))
    for got, ref in rows:
        worst = max(worst, abs(got - ref) / scale)
    return ("projection_vs_quad", worst <= COEFF_RTOL,
            f"modes {ks} at t={list(times)}: max gap {worst:.2e} of |c_1|")


def check_wall(us_wall, us_all) -> tuple:
    wall = float(np.max(np.abs(us_wall)))
    scale = float(np.max(np.abs(us_all)))
    return ("wall_value_zero", wall <= WALL_RTOL * scale,
            f"max |u(1,t)| {wall:.2e} against max |u| {scale:.2e}")


def check_library(state) -> list:
    """Checks of a library solve and its field."""
    sol = state["sol"]
    seed = state["seed"]
    slope = wl.builtin_forcing(seed)["time_poly"][1]

    def profile_at(t):
        return lambda x: (x ** 4 * (1.0 - x) ** 3) * (1.0 + slope * t)

    xs = state["xs"]
    u = np.array([f[0] for f in state["field"]])
    return [
        check_eigenvalues(sol.lams),
        check_deltas([m.Delta_k for m in sol.modes]),
        check_coefficients(sol, profile_at, (-0.5, 0.5)),
        check_wall(u[:, xs == 1.0], u),
    ]


def _other_forcing(workload: str, seed: int):
    """Forcing of the other CLI workload, built without the CLI."""
    from fracbessel.solver import Forcing
    if workload == "cli-tabulated":
        f = wl.builtin_forcing(seed)
        return Forcing(kind=f["kind"], space_poly=tuple(f["space_poly"]),
                       time_poly=tuple(f["time_poly"]))
    s, c = wl.tabulated_profile(seed)
    xs, ts = wl.tabulated_grid()
    samples = wl.tabulated_value(xs[:, None], ts[None, :], s, c)
    return Forcing(kind="tabulated", x_grid=tuple(xs), t_grid=tuple(ts),
                   samples=tuple(map(tuple, samples)))


def check_cli(state) -> list:
    """Checks of the three artifacts written by cli.run."""
    import dataclasses

    import fracbessel.solver as solver
    from fracbessel.spectrum import eigenvalue_table

    out = state["out"] / "artifacts"
    cfg = state["cfg"]
    checks = []
    report = json.loads((out / "report.json").read_text())
    checks.append(("report_overall_exit_0",
                   report["overall"] is True and state["rc"] == 0,
                   f"overall={report['overall']} exit={state['rc']}"))

    with open(out / "modes.csv", newline="") as fh:
        modes = list(csv.DictReader(fh))
    lams = [float(r["lambda"]) for r in modes]
    deltas = [float(r["Delta"]) for r in modes]
    checks.append(check_eigenvalues(lams))
    checks.append(check_deltas(deltas))

    # Delta_k does not depend on the forcing: the other CLI workload's
    # forcing must give the same determinants bit for bit.
    other = dataclasses.replace(
        cfg.spec, forcing=_other_forcing(state["workload"], state["seed"]))
    zero = lambda t: 0.0 * np.asarray(t, dtype=float)  # noqa: E731
    same = all(
        solver.compute_Delta_k(solver.ModeRecord(ev=ev, f_k=zero), other) == d
        for ev, d in zip(eigenvalue_table(len(deltas)), deltas))
    checks.append(("delta_forcing_independent", same,
                   "Delta_k equal under the other CLI workload's forcing"))

    with open(out / "solution.csv", newline="") as fh:
        grid = list(csv.DictReader(fh))
    u_all = [float(r["u"]) for r in grid]
    u_wall = [float(r["u"]) for r in grid if float(r["x"]) == 1.0]
    checks.append(check_wall(u_wall, u_all))

    # the projections behind the artifacts, from a library solve of the
    # same spec (cli.run does not hand its solution back)
    sol = solver.solve_modes(cfg.spec)
    if state["workload"] == "cli-default":
        slope = cfg.spec.forcing.time_poly[1]
        checks.append(check_coefficients(
            sol, lambda t: (lambda x: x ** 4 * (1.0 - x) ** 3
                            * (1.0 + slope * t)), (-0.5, 0.5)))
    else:
        # at sample times the forcing is the piecewise-linear interpolant
        # of the CSV column, integrated exactly between its breaks
        s, c = wl.tabulated_profile(state["seed"])
        xs, ts = wl.tabulated_grid()

        def profile_at(t):
            col = wl.tabulated_value(xs, t, s, c)
            return lambda x: np.interp(x, xs, col)
        checks.append(check_coefficients(
            sol, profile_at, (float(ts[8]), float(ts[24])), breaks=xs[1:-1]))
    return checks


# ---------------------------------------------------------------------------
# Mittag-Leffler values


def check_ml(state) -> list:
    import fracbessel
    ml = fracbessel.mittag_leffler
    P = fracbessel.MLParams
    checks = []
    worst_id = 0.0
    worst_mp = 0.0
    for (a, b, band, z), vals in zip(state["arguments"], state["values"]):
        zs = z[:wl.ML_IDENTITY_POINTS]
        lhs = vals[:wl.ML_IDENTITY_POINTS]
        shifted = zs * ml(P(a, a + b), zs)
        rg = 1.0 / math.gamma(b)
        gap = np.abs(lhs - (rg + shifted)) / (abs(rg) + np.abs(shifted))
        worst_id = max(worst_id, float(np.max(gap)))
        if band != "asymptotic":
            for zi, vi in zip(z[:wl.ML_CHECK_POINTS],
                              vals[:wl.ML_CHECK_POINTS]):
                ref = ml_mp(a, b, float(zi))
                worst_mp = max(worst_mp,
                               abs(vi - ref) / max(abs(ref), ML_FLOOR))
    checks.append(("ml_beta_recurrence", worst_id <= IDENTITY_RTOL,
                   f"max gap {worst_id:.2e} of the term scale"))
    checks.append(("ml_vs_mpmath", worst_mp <= ML_RTOL,
                   f"max gap {worst_mp:.2e} of max(|E|, {ML_FLOOR:g}) "
                   "(|z| < 100)"))

    rng = np.random.default_rng([state["seed"], 99])
    x = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 2000))
    got = ml(P(0.5, 1.0), -x)
    gap = float(np.max(np.abs(got - special.erfcx(x)) / special.erfcx(x)))
    checks.append(("ml_half_vs_erfcx", gap <= ML_RTOL,
                   f"max relative gap {gap:.2e} over x in [1e-3, 1e6]"))
    return checks


def run_checks(state) -> list:
    w = state["workload"]
    if w.startswith("cli-"):
        return check_cli(state)
    if w == "solve-large-n":
        return check_library(state)
    return check_ml(state)
