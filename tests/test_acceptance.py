"""End-to-end acceptance battery.

Ten numbered criteria, one verdict line each (printed in the terminal
summary by the conftest hook).  Gates are pinned here and nowhere else;
each test computes its measurement, records the line, then asserts.
Shared heavyweight objects (the solved default instance and its full
verification report) come from the session fixtures.
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fracbessel.cli import EXIT_SOLVABILITY, main
from fracbessel.fracops import (OperatorParams, bi_ordinal_hilfer,
                                hyper_bessel_caputo)
from fracbessel.solver import (DELTA_FLOOR, Forcing, ModeRecord,
                               ProblemSpec, TimeCoefficient, compute_Delta_k,
                               delta_limit, eval_u, mode_matrix, solve_modes)
from fracbessel.specfun import MLParams, gamma, mittag_leffler, rgamma
from fracbessel.spectrum import bessel_zero
from fracbessel.verify import weighted_spline_candidate

DELTA_LIMIT_PIN = 0.3902200094


def test_criterion_01_mittag_leffler_identity_suite(criterion):
    """Classical reductions plus the shift recurrence across the
    evaluator's internal block boundaries."""
    zs = np.linspace(-30.0, 30.0, 121)
    exp_err = float(np.max(np.abs(
        (mittag_leffler(MLParams(1.0, 1.0), zs) - np.exp(zs))
        / np.exp(zs))))

    xs = np.linspace(0.05, 50.0, 200)
    cos_err = float(np.max(np.abs(
        mittag_leffler(MLParams(2.0, 1.0), -xs ** 2) - np.cos(xs))))

    zero_err = max(
        abs(float(mittag_leffler(MLParams(a, b), 0.0)) * gamma(b) - 1.0)
        for a, b in [(0.5, 0.7), (1.3, 1.0), (0.7, 2.0), (2.0, 1.5)])

    # E_{a,b}(z) = z E_{a,b+a}(z) + 1/Gamma(b), scaled by the largest
    # combined term; the block-switch bands get 1e-8, elsewhere 1e-10
    rec_err = rec_firm = 0.0
    zgrid = -np.geomspace(1e-2, 1e6, 160)
    for a, b in [(0.6, 1.4), (1.5, 1.0), (1.2, 2.0)]:
        lhs = np.asarray(mittag_leffler(MLParams(a, b), zgrid))
        term = zgrid * np.asarray(mittag_leffler(MLParams(a, b + a), zgrid))
        scale = np.maximum.reduce([np.abs(lhs), np.abs(term),
                                   np.full_like(zgrid, abs(rgamma(b)))])
        rel = np.abs(lhs - (term + 1.0 / gamma(b))) / scale
        rec_err = max(rec_err, float(np.max(rel)))
        firm = (np.abs(zgrid) <= 3.0) | (np.abs(zgrid) >= 1e5)
        rec_firm = max(rec_firm, float(np.max(rel[firm])))

    ok = (exp_err <= 1e-10 and cos_err <= 1e-10 and zero_err <= 1e-10
          and rec_firm <= 1e-10 and rec_err <= 1e-8)
    detail = (f"exp {exp_err:.1e}, cos {cos_err:.1e}, origin {zero_err:.1e}, "
              f"recurrence {rec_firm:.1e} (boundary bands {rec_err:.1e})")
    assert criterion(1, ok, detail), detail


def test_criterion_02_negative_axis_asymptotics(criterion):
    """z E(z) + 1/Gamma(b-a) must sit under the next-term scale 2/|z|
    at z = -1e6."""
    z = -1e6
    worst = 0.0
    for a, b in [(0.6, 1.4), (1.5, 1.0), (1.2, 2.0)]:
        val = float(mittag_leffler(MLParams(a, b), z))
        worst = max(worst, abs(z * val + rgamma(b - a)))
    ok = worst <= 2.0 / abs(z)
    detail = f"max |z E + 1/Gamma(b-a)| = {worst:.2e} vs 2/|z| = 2e-06"
    assert criterion(2, ok, detail), detail


def test_criterion_03_hilfer_interpolation_endpoints(criterion):
    """mu = 0 must reduce to the right RL derivative of the lower order,
    mu = 1 to the right Caputo derivative of the upper order, on two
    monomial profiles."""
    worst = 0.0
    for mu, order in ((0.0, 1.2), (1.0, 1.5)):
        op = OperatorParams(0.7, 0.2, 1.5, 1.2, mu)
        for c in (3.0, 2.5):
            for t in (-0.7, -0.35):
                want = (gamma(c + 1.0) / gamma(c + 1.0 - order)
                        * (-t) ** (c - order))
                got = bi_ordinal_hilfer(op, lambda s: (-s) ** c, t,
                                        inner_exponent=c)
                worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-4
    detail = f"endpoint reductions on (-t)^3, (-t)^2.5: max rel {worst:.2e}"
    assert criterion(3, ok, detail), detail


def test_criterion_04_backward_cauchy_plug_back(criterion, backward_cauchy):
    """The closed-form backward solution of one mode, wrapped as a
    weighted spline candidate, must satisfy its own equation under the
    quadrature operator oracle."""
    worst = 0.0
    lam_coeff = -4.0

    g = TimeCoefficient(poly=(1.0, 0.3))

    for params, xi0, xi1 in [((1.5, 1.2, 0.5), 0.8, -0.5),
                             ((1.8, 1.5, 0.3), 0.8, -0.5),
                             ((1.5, 1.2, 0.5), 0.0, 0.0)]:
        alpha2, beta2, mu = params
        op = OperatorParams(0.7, 0.2, alpha2, beta2, mu)
        g2, d2 = op.gamma2, op.delta2
        sol = backward_cauchy(op, xi0, xi1, g)
        cand = weighted_spline_candidate(lambda t: mode_matrix(sol, t)[0],
                                         g2, 1.0,
                                         knot0=xi0 * rgamma(g2 - 1.0))
        for t in (-0.5, -0.25):
            got = bi_ordinal_hilfer(op, cand, t, n=160,
                                    inner_exponent=g2 - 2.0,
                                    outer_exponent=d2 - 2.0)
            want = lam_coeff * mode_matrix(sol, [t])[0, 0] + float(g(t))
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-3
    detail = (f"equation residual of the solution formula: max rel "
              f"{worst:.2e} over 3 cases x 2 times")
    assert criterion(4, ok, detail), detail


def test_criterion_05_forward_eigenrelation(criterion):
    """The relaxation kernel is an eigenfunction of the weighted Caputo
    operator with eigenvalue -lam^2."""
    lam = bessel_zero(2).lam
    worst = 0.0
    for alpha1, theta in [(0.5, 0.0), (0.8, 0.3), (1.0, -0.5)]:
        op = OperatorParams(alpha1, theta, 1.5, 1.2, 0.5)
        cb = lam ** 2 / op.p ** alpha1
        kernel = MLParams(alpha=alpha1, beta=1.0)

        def u(s):
            s = np.asarray(s, dtype=float)
            return mittag_leffler(kernel, -cb * s ** (op.p * alpha1))

        t = 0.6
        got = hyper_bessel_caputo(op, u, 1.0, t)
        want = -lam ** 2 * float(u(np.array([t]))[0])
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-4
    detail = f"eigenrelation over 3 operator shapes: max rel {worst:.2e}"
    assert criterion(5, ok, detail), detail


def test_criterion_06_full_problem_residuals(criterion, default_report):
    """Solved default instance: mode residuals, boundary, gluing and the
    dual-route non-local condition, at the stock gates."""
    rows = {c.name: c for c in default_report.checks}

    mode_worst = 0.0
    for side in ("forward", "backward"):
        for k in range(1, 11):
            row = rows[f"mode_ode_{side}_k{k:02d}"]
            mode_worst = max(mode_worst, row.measured_value)
    wall = rows["boundary_wall_value"].measured_value
    flux = rows["boundary_axis_flux"].measured_value
    glue_names = ("gluing_coefficient_identities", "gluing_value_trace",
                  "gluing_derivative_trace")
    glue_ratio = max(rows[n].measured_value / rows[n].tolerance
                     for n in glue_names)
    nl_names = ("nonlocal_identity_route", "nonlocal_oracle_route",
                "nonlocal_route_agreement")
    nl_worst = max(rows[n].measured_value for n in nl_names)

    ok = (mode_worst <= 1e-3
          and wall <= 1e-4 and flux <= 1e-4
          and all(rows[n].passed for n in glue_names)
          and all(rows[n].passed for n in nl_names))
    detail = (f"mode residual {mode_worst:.1e} (gate 1e-3), boundary "
              f"{max(wall, flux):.1e} (gate 1e-4), gluing at "
              f"{glue_ratio:.2f} of its relative gate, non-local "
              f"{nl_worst:.1e}")
    assert criterion(6, ok, detail), detail


def test_criterion_07_determinant_limit(criterion, default_spec):
    """Delta_k must approach the weighted-history constant with an
    O(lam^-2) gap over the pinned k ladder."""
    L = delta_limit(default_spec)
    zero = lambda t: np.zeros_like(np.asarray(t))
    lams, gaps = [], []
    for k in (10, 25, 50, 100, 200):
        ev = bessel_zero(k)
        d = compute_Delta_k(ModeRecord(ev=ev, f_k=zero), default_spec)
        lams.append(ev.lam)
        gaps.append(abs(d - L))
    slope = float(np.polyfit(np.log(lams), np.log(gaps), 1)[0])
    plateau = [g * l * l for g, l in zip(gaps, lams)]
    spread = max(plateau) / min(plateau)

    ok = (abs(L - DELTA_LIMIT_PIN) <= 5e-10
          and abs(slope + 2.0) <= 0.1
          and spread <= 1.05)
    detail = (f"limit {L:.10f} (pin {DELTA_LIMIT_PIN}), gap slope "
              f"{slope:.4f} vs -2, lam^2-scaled spread {spread:.4f}")
    assert criterion(7, ok, detail), detail


def test_criterion_08_decay_exponent_band(criterion, default_report):
    """Two-sided slope bands: forcing and primary coefficients within
    0.3 of -3.5, derivative trace within 0.3 of -1.5.

    The bands demand the worst regularity the coefficient bounds allow.
    The builtin forcing is smoother than that worst case, so its
    coefficients decay strictly faster and the band check fails on the
    fast side.  The gate is kept exactly as pinned; this failure is the
    recorded outcome, not a defect in the solver.
    """
    rows = {c.name: c for c in default_report.checks}
    s_f = rows["decay_forcing_coeff"].measured_value
    s_tau = rows["decay_primary_coeff"].measured_value
    s_psi = rows["decay_derivative_trace_coeff"].measured_value

    ok = (abs(s_f + 3.5) <= 0.3 and abs(s_tau + 3.5) <= 0.3
          and abs(s_psi + 1.5) <= 0.3)
    detail = (f"slopes f {s_f:.3f} (band -3.5+-0.3), tau {s_tau:.3f} "
              f"(band -3.5+-0.3), psi {s_psi:.3f} (band -1.5+-0.3)")
    assert criterion(8, ok, detail), detail


def test_criterion_09_zero_forcing_uniqueness(criterion, default_op):
    """Zero forcing with every determinant above floor must give the
    identically zero solution, exactly."""
    spec = ProblemSpec(
        op=default_op, T=1.0, nonlocal_points=((0.6, -1.0),),
        forcing=Forcing(kind="separable_builtin", space_poly=(0.0,),
                        time_poly=(1.0,)),
        N=8)
    sol = solve_modes(spec)
    min_delta = min(abs(m.Delta_k) for m in sol.modes)

    xs = np.linspace(0.0, 1.0, 21)
    ts = np.concatenate([-np.geomspace(1e-3, 1.0, 7), [0.0],
                         np.linspace(1.0 / 7.0, 1.0, 7)])
    worst = max(float(np.max(np.abs(eval_u(sol, xs, float(t)))))
                for t in ts)
    ok = min_delta > DELTA_FLOOR and worst == 0.0
    detail = (f"max |u| = {worst} over 21 x 15 grid points, min |Delta| "
              f"= {min_delta:.3f}")
    assert criterion(9, ok, detail), detail


def test_criterion_10_solvability_guard(criterion, tmp_path, capsys,
                                        default_op):
    """A horizon tuned so the first-mode determinant vanishes must stop
    the run with the solvability exit code and name k=1."""
    forcing = Forcing(kind="separable_builtin", space_poly=(1.0,),
                      time_poly=(1.0, 0.5))
    probe = ModeRecord(ev=bessel_zero(1),
                       f_k=lambda t: np.zeros_like(np.asarray(t)))

    def delta1(T):
        spec = ProblemSpec(op=default_op, T=T,
                           nonlocal_points=((0.03, -1.0),),
                           forcing=forcing, N=2)
        return compute_Delta_k(probe, spec)

    T_star = brentq(delta1, 1.2, 20.0, xtol=1e-13)

    cfg = {"problem": {
        "operator": {"alpha1": 0.7, "theta": 0.2, "alpha2": 1.5,
                     "beta2": 1.2, "mu": 0.5},
        "T": T_star, "nonlocal_points": [[0.03, -1.0]],
        "forcing": {"kind": "separable_builtin", "space_poly": [1.0],
                    "time_poly": [1.0, 0.5]},
        "N": 3},
        "grid": {"nx": 5, "nt_pos": 3, "nt_neg": 3},
        "flags": {"verify_modes": 1}}
    cfg_path = tmp_path / "degenerate.json"
    cfg_path.write_text(json.dumps(cfg))

    rc = main(["solve", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    ok = (rc == EXIT_SOLVABILITY and "k=1" in err
          and abs(delta1(T_star)) < 1e-10)
    detail = (f"T tuned to {T_star:.6f}, Delta_1 = {delta1(T_star):.1e}, "
              f"exit code {rc}, diagnostic names k=1: {'k=1' in err}")
    assert criterion(10, ok, detail), detail
