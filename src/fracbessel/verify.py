"""Consistency checks on an assembled series solution.

Every quantity the solver obtains from an explicit formula is
re-derived here through an independent route: direct quadrature of the
defining integrals, finite differences of the series evaluator, or
small power-law fits near the interface.  The two routes must agree;
no formula is compared against itself.

Results come back as CheckResult rows inside a VerificationReport and
``overall`` is the plain conjunction.  Notes name the mathematical
claim in words so a failing row can be read without the construction
in front of you.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fracops import (_per_t, bi_ordinal_hilfer, hyper_bessel_caputo,
                      rl_integral_right)
from .solver import (ModeRecord, ProblemSpec, SeriesSolution, compute_Delta_k,
                     delta_limit, eval_u, mode_matrix, radial_basis)
from .specfun import gamma, rgamma
from .spectrum import eigenvalue_table

__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_boundary",
    "check_gluing",
    "check_nonlocal",
    "check_mode_odes",
    "check_delta_asymptote",
    "check_decay_rates",
    "verify_solution",
    "weighted_spline_candidate",
]

BOUNDARY_TOL = 1e-4
GLUING_REL = 1e-3
NONLOCAL_REL = 1e-5
MODE_ODE_REL = 1e-3

# Gate for the two-sided derivative comparison, which is checked against
# the transfer-defect model rather than against zero; see check_gluing.
# The per-mode fit lands near 2.5e-5 at default parameters.
DERIVATIVE_MODEL_REL = 1e-3

# the k at which verify_solution samples the Delta_k gap to its limit
DELTA_K_LADDER = (10, 25, 50, 100, 200)


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: what was expected, what was measured."""

    name: str
    target_value: float
    measured_value: float
    tolerance: float
    passed: bool
    note: str

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "target_value": self.target_value,
            "measured_value": self.measured_value,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "note": self.note,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    overall: bool

    @classmethod
    def from_checks(cls, checks) -> "VerificationReport":
        checks = tuple(checks)
        return cls(checks=checks, overall=all(c.passed for c in checks))

    def as_dict(self) -> dict:
        return {
            "overall": bool(self.overall),
            "checks": [c.as_dict() for c in self.checks],
        }


# ---------------------------------------------------------------------------
# shared helpers

def _u_scale(sol: SeriesSolution) -> float:
    """Sup of |u| over a coarse lattice, used to scale relative gates."""
    xs = np.linspace(0.0, 1.0, 9)
    T = sol.spec.T
    ts = np.concatenate([[0.0], np.linspace(0.2 * T, T, 4),
                         -np.linspace(0.15 * T, T, 4)])
    return float(np.max(np.abs(radial_basis(sol, xs) @ mode_matrix(sol, ts))))


def _power_fit(ws: np.ndarray, vals: np.ndarray, expos) -> tuple:
    """Least-squares fit vals ~ sum_j c_j w^{e_j} with deduped exponents.

    Columns are max-scaled before the solve; coincident exponents (they
    happen at special parameter values, e.g. delta2 == gamma2) collapse
    to one column instead of making the matrix singular.
    """
    es = []
    for e in expos:
        if all(abs(e - f) > 1e-9 for f in es):
            es.append(float(e))
    A = np.stack([ws ** e for e in es], axis=1)
    col = np.abs(A).max(axis=0)
    coef, *_ = np.linalg.lstsq(A / col, vals, rcond=None)
    coef = coef / col.reshape((-1,) + (1,) * (coef.ndim - 1))
    return es, coef


def _expo_index(es, e: float) -> int:
    return int(np.argmin([abs(x - e) for x in es]))


def weighted_spline_candidate(u, gamma2: float, span: float, *,
                              knot0, M: int = 400):
    """Cubic-spline surrogate of a right-sided weighted candidate.

    ``u`` must accept arrays of negative t and return one value, or one
    row of candidates, per t.  The surrogate represents
    h(q) = u(-q) q^{2-gamma2} on the cube-graded knots q_i = span (i/M)^3,
    i = 0..M, and returns u(t) = S((-t)^{1/3}) (-t)^{gamma2-2}, one value
    (or row) per t, so operator oracles can sample the candidate densely
    at negligible cost.  ``knot0`` is the finite limit of
    u(t) (-t)^{2-gamma2} at t -> 0-, one per candidate.

    S is the not-a-knot cubic spline through (s_i, h(q_i)) on the knots
    s_i = q_i^{1/3}, which are uniform with step span^{1/3}/M.  Its
    slopes come from one tridiagonal sweep over all candidates, which
    gives each the bits of its fit alone, and a point is evaluated in
    the piece its index floor(s/step) names (the end pieces extend past
    the knots).  Needs M >= 3: with three knots the two not-a-knot
    conditions coincide.
    """
    if M < 3:
        raise ValueError(f"the not-a-knot spline needs M >= 3, got {M}")
    q = span * (np.arange(M + 1) / M) ** 3
    vals = np.asarray(u(-q[1:]), dtype=float)
    y = np.empty((M + 1,) + vals.shape[1:])
    y[0] = knot0
    y[1:] = vals * _per_t(q[1:] ** (2.0 - gamma2), vals)
    step = np.cbrt(span) / M
    sec = np.diff(y, axis=0) / step

    # slopes m_i: m_{i-1} + 4 m_i + m_{i+1} = 3 (sec_{i-1} + sec_i) inside,
    # with the not-a-knot rows m_0 + 2 m_1 and 2 m_{M-1} + m_M at the ends.
    # The factors depend on M only; each step of the sweep takes one row of
    # right-hand sides, one per candidate, and a row of one is a scalar,
    # whose arithmetic costs numpy a fraction of a one-element array's.
    rhs = np.concatenate([(5.0 * sec[:1] + sec[1:2]) / 2.0,
                          3.0 * (sec[:-1] + sec[1:]),
                          (sec[-2:-1] + 5.0 * sec[-1:]) / 2.0])
    r = list(rhs.reshape(M + 1, -1).squeeze())
    diag = [1.0] + [4.0] * (M - 1) + [1.0]
    for i in range(1, M + 1):
        f = (2.0 if i == M else 1.0) / diag[i - 1]
        diag[i] -= f * (2.0 if i == 1 else 1.0)
        r[i] = r[i] - f * r[i - 1]
    r[M] = r[M] / diag[M]
    for i in range(M - 1, 0, -1):
        r[i] = (r[i] - r[i + 1]) / diag[i]
    r[0] = (r[0] - 2.0 * r[1]) / diag[0]
    m = np.array(r).reshape(y.shape)

    # piece i is y_i + m_i d + c2_i d^2 + c3_i d^3 with d = s - i step
    k3 = (m[:-1] + m[1:] - 2.0 * sec) / step
    c3 = k3 / step
    c2 = (sec - m[:-1]) / step - k3

    def wrapped(t):
        qq = -np.asarray(t, dtype=float)
        s = np.cbrt(qq)
        i = np.clip(np.floor(s / step).astype(int), 0, M - 1)
        d = _per_t(s - i * step, c3)
        return ((((c3.take(i, axis=0) * d + c2.take(i, axis=0)) * d
                  + m.take(i, axis=0)) * d + y.take(i, axis=0))
                * _per_t(qq ** (gamma2 - 2.0), c3))

    return wrapped


# ---------------------------------------------------------------------------
# individual checks

def check_boundary(sol: SeriesSolution) -> list:
    """Wall value at x = 1 and the vanishing axis flux x u_x at x -> 0+."""
    T = sol.spec.T
    ts = [0.0]
    ts.extend(np.linspace(0.15 * T, T, 6))
    ts.extend(-np.linspace(0.1 * T, T, 6))

    vals = mode_matrix(sol, ts)
    wall = float(np.max(np.abs(radial_basis(sol, 1.0) @ vals)))
    checks = [CheckResult(
        "boundary_wall_value", 0.0, wall, BOUNDARY_TOL, wall <= BOUNDARY_TOL,
        "zero Dirichlet value at the outer wall over a t sample; with "
        "refined eigenvalues this sits at roundoff")]

    xsmall = (1e-2, 1e-3, 1e-4)
    flux = [float(np.max(np.abs(x * (radial_basis(sol, x, 1) @ vals))))
            for x in xsmall]
    ok = flux[0] >= flux[1] >= flux[2] and flux[2] <= BOUNDARY_TOL
    checks.append(CheckResult(
        "boundary_axis_flux", 0.0, flux[2], BOUNDARY_TOL, ok,
        "x u_x sampled at x = 1e-2, 1e-3, 1e-4 gives "
        f"{flux[0]:.3e}, {flux[1]:.3e}, {flux[2]:.3e}; the sequence must "
        "not increase and the last sample must clear the tolerance"))
    return checks


def _interface_profiles(sol: SeriesSolution, xs: np.ndarray,
                        ws: np.ndarray, n: int = 64) -> np.ndarray:
    """(I^a u)(x, -w), one row per w and one column per x, by one right-RL
    quadrature of the series at every x.

    The rule absorbs both the kernel power and the (-s)^{gamma2-2}
    growth of the backward branch, so the remaining integrand is mild.
    """
    op = sol.spec.op
    a = op.hilfer_inner_order
    g2 = op.gamma2
    basis = radial_basis(sol, xs).T
    if a == 0.0:
        return mode_matrix(sol, -ws).T @ basis
    return rl_integral_right(a, lambda s: mode_matrix(sol, s).T @ basis,
                             -ws, n=n, singular_exponent=g2 - 2.0)


def check_gluing(sol: SeriesSolution, *, _scale: float = None) -> list:
    """The two interface conditions plus the coefficient transfer rules.

    Four rows: (a) exact coefficient identities; (b) the memory-weighted
    value of the backward branch meets the forward value; (c) the
    backward derivative trace attains its coefficient target; (d) the
    two one-sided derivative limits differ by exactly the predictable
    transfer defect of the construction, which is reported rather than
    hidden.
    """
    spec = sol.spec
    op = spec.op
    unorm = _u_scale(sol) if _scale is None else _scale
    floor = 1e-300
    d2, g2 = op.delta2, op.gamma2
    checks = []

    # (a) identities linking tau, phi, psi; exact by construction
    pa = op.p ** op.alpha1 * gamma(op.alpha1)
    worst = 0.0
    for m in sol.modes:
        lam2 = m.ev.lam ** 2
        worst = max(
            worst,
            abs(m.phi_k - m.tau_k) / max(1.0, abs(m.tau_k)),
            abs(m.psi_k - (-(lam2 / pa) * m.tau_k)) / max(1.0, abs(m.psi_k)),
        )
    checks.append(CheckResult(
        "gluing_coefficient_identities", 0.0, worst, 1e-14, worst <= 1e-14,
        "forward trace equals the weighted backward trace and the "
        "derivative trace carries the -lam^2/(p^a1 Gamma(a1)) factor"))

    # interface profiles I^a u(x, -w) on a small-w ladder, fitted against
    # the known exponent set; two correction generations are kept because
    # the linear coefficient is collinear with the fractional ones over a
    # short window and absorbs their truncation otherwise
    xs = np.linspace(0.0, 1.0, 11)
    T = spec.T
    ws = T * np.geomspace(3e-4, 1e-2, 9)
    prof = _interface_profiles(sol, xs, ws)
    da = d2 + 2.0 - g2
    es, coef = _power_fit(ws, prof,
                          (0.0, 1.0, d2, da, d2 + 1.0, 2.0 * d2, da + 1.0))
    val_lim = coef[_expo_index(es, 0.0)]
    lin_coef = coef[_expo_index(es, 1.0)]
    deriv_left = -lin_coef  # d/dt = -d/dw

    u0p = eval_u(sol, xs, 0.0)
    res_b = float(np.max(np.abs(val_lim - u0p)))
    tol_b = GLUING_REL * max(unorm, floor)
    checks.append(CheckResult(
        "gluing_value_trace", 0.0, res_b, tol_b, res_b <= tol_b,
        "limit of the memory-weighted backward value matches u(x, 0+) "
        f"at 11 x points; |u| scale {unorm:.3e}"))

    # (c) left derivative trace against its coefficient target
    dpsi = radial_basis(sol, xs) @ sol.psis
    scale_c = max(float(np.max(np.abs(dpsi))), unorm, floor)
    res_c = float(np.max(np.abs(deriv_left - dpsi)))
    tol_c = GLUING_REL * scale_c
    checks.append(CheckResult(
        "gluing_derivative_trace", 0.0, res_c, tol_c, res_c <= tol_c,
        "t-derivative of the weighted backward branch attains the "
        "psi-coefficient series at the interface"))

    # (d) two-sided comparison: the forward weighted derivative limit
    # t^{1-p a1} u_t does not reproduce the psi series; it differs by a
    # defect fixed by the transfer rule.  Each mode reaches that limit
    # only below its own crossover time, so the comparison is made mode
    # by mode: read the first few mode values, difference in t on a
    # window under the crossover, and gate the mismatch against the
    # defect model.  Every window is sampled in one call, and each mode
    # reads its own row at its own 16 columns.
    p = op.p
    a1 = op.alpha1
    pa1 = p * a1
    worst_d = 0.0
    raw_d = 0.0
    model_d = 0.0
    windows = []
    for m in sol.modes[:3]:
        cb = m.ev.lam ** 2 / p ** a1
        t_hi = min((0.05 / cb) ** (1.0 / pa1), 0.45 * T)
        ts = np.geomspace(t_hi / 20.0, t_hi, 8)
        windows.append((m, ts, 0.02 * ts))
    vals = mode_matrix(sol, np.concatenate(
        [np.concatenate([ts + h, ts - h]) for _, ts, h in windows]),
        modes=slice(0, len(windows)))
    f0 = sol.time_coefs[:len(windows)](0.0)
    for j, (m, ts, h) in enumerate(windows):
        fk = vals[j, 16 * j:16 * (j + 1)]
        gk = ts ** (1.0 - pa1) * (fk[:len(ts)] - fk[len(ts):]) / (2.0 * h)
        es2, coef2 = _power_fit(ts, gk, (0.0, pa1, 1.0, 2.0 * pa1))
        b0 = float(coef2[_expo_index(es2, 0.0)])
        target = (p ** (1.0 - a1)
                  * (float(f0[j]) - m.ev.lam ** 2 * m.tau_k)
                  / gamma(a1))
        scale_k = max(abs(m.psi_k), abs(target), floor)
        worst_d = max(worst_d, abs(b0 - target) / scale_k)
        raw_d = max(raw_d, abs(b0 - m.psi_k) / scale_k)
        model_d = max(model_d, abs(target - m.psi_k) / scale_k)
    tol_d = DERIVATIVE_MODEL_REL
    checks.append(CheckResult(
        "gluing_derivative_two_sided", 0.0, worst_d, tol_d, worst_d <= tol_d,
        f"raw two-sided mismatch {raw_d:.3e} of the trace scale against a "
        f"predicted transfer defect of {model_d:.3e}; the measured mismatch "
        "must track the defect model, not vanish"))
    return checks


def check_nonlocal(sol: SeriesSolution, *, _scale: float = None) -> list:
    """History condition at t = T via two independent routes.

    Route 1 shifts each mode analytically (index-shift identity of the
    kernel family); route 2 integrates the assembled series with the
    right-RL quadrature oracle at two node counts.  Three rows: each
    route's residual and the route agreement.
    """
    spec = sol.spec
    op = spec.op
    unorm = _u_scale(sol) if _scale is None else _scale
    floor = 1e-300
    a = op.hilfer_inner_order
    g2 = op.gamma2
    xs = np.linspace(0.0, 1.0, 21)
    basis = radial_basis(sol, xs).T
    uT = eval_u(sol, xs, spec.T)

    # route 1: each backward mode integrated analytically
    terms = np.zeros(len(sol.modes))
    for pi, xi in spec.nonlocal_points:
        if pi != 0.0:
            terms = terms + pi * mode_matrix(sol, [xi], order=a)[:, 0]
    r1 = terms @ basis - uT
    res1 = float(np.max(np.abs(r1)))
    tol_n = NONLOCAL_REL * max(unorm, floor)
    checks = [CheckResult(
        "nonlocal_identity_route", 0.0, res1, tol_n, res1 <= tol_n,
        "weighted history average minus the terminal value, each mode "
        "shifted analytically")]

    # route 2: direct quadrature of the assembled series at two node
    # counts; xi = 0 contributions fall back to the value trace, which
    # check_gluing exercises independently
    r2 = -uT
    err = np.zeros(len(xs))
    pis, xis = np.array(spec.nonlocal_points, dtype=float).reshape(-1, 2).T
    live = pis != 0.0
    quad = live & (xis != 0.0) & (a > 0.0)
    for pi, xi in zip(pis[live & ~quad], xis[live & ~quad]):
        r2 = r2 + pi * eval_u(sol, xs, float(xi))
    if quad.any():
        # the series at every x and history point, one call per rule
        v_hi, v_lo = (rl_integral_right(
            a, lambda s: mode_matrix(sol, s).T @ basis, xis[quad], n=nodes,
            singular_exponent=g2 - 2.0) for nodes in (160, 112))
        r2 = r2 + pis[quad] @ v_hi
        err = np.abs(pis[quad]) @ np.abs(v_hi - v_lo)
    res2 = float(np.max(np.abs(r2)))
    checks.append(CheckResult(
        "nonlocal_oracle_route", 0.0, res2, tol_n, res2 <= tol_n,
        "same residual with the fractional average done by right-RL "
        "quadrature of the assembled series"))

    agree = float(np.max(np.abs(r1 - r2)))
    tol_a = max(10.0 * float(np.max(err)), 1e-10 * max(1.0, unorm))
    checks.append(CheckResult(
        "nonlocal_route_agreement", 0.0, agree, tol_a, agree <= tol_a,
        "the two routes agree within the refinement-based quadrature "
        "error estimate"))
    return checks


def check_mode_odes(sol: SeriesSolution, k_max: int) -> list:
    """Plug each mode back into its own fractional ODE via the oracles.

    The first k_max modes go through each stage at once, one column
    each, in one mode_matrix call: forward values, forward oracle,
    backward values, spline knots.  Forward side: the hyper-Bessel
    Caputo oracle samples the mode evaluator directly.  Backward side:
    the bi-ordinal oracle samples a spline surrogate (the weighted
    candidate is smooth only after the (-t)^{gamma2-2} factor is
    stripped, and the oracle needs thousands of candidate values).
    """
    spec = sol.spec
    op = spec.op
    if k_max > spec.N:
        raise ValueError(f"k_max={k_max} exceeds N={spec.N}")
    if k_max < 1:
        return []
    T = spec.T
    d2, g2 = op.delta2, op.gamma2
    fwd_ts = T * np.array([0.25, 0.55, 0.85])
    bwd_ts = T * np.array([-0.75, -0.4])
    modes = sol.modes[:k_max]

    def samples(t):
        return mode_matrix(sol, t, modes=slice(0, k_max)).T

    fwd = hyper_bessel_caputo(op, samples, sol.taus[:k_max], fwd_ts, n=192)
    uspl = weighted_spline_candidate(
        samples, g2, 1.02 * float(np.max(-bwd_ts)),
        knot0=sol.phis[:k_max] * rgamma(g2 - 1.0))
    bwd = bi_ordinal_hilfer(op, uspl, bwd_ts, n=160, inner_exponent=g2 - 2.0,
                            outer_exponent=d2 - 2.0)

    # |L u_k + lam^2 u_k - f_k| over ts, relative to the larger of
    # lam^2 |u_k| and |f_k| there, one column per mode; lam^2 is the
    # float power of each mode, since numpy's square rounds some apart
    lam2 = np.array([m.ev.lam ** 2 for m in modes])
    worst = []
    for ts, Lu in ((fwd_ts, fwd), (bwd_ts, bwd)):
        uvals = samples(ts)
        fvals = sol.time_coefs[:k_max](ts).T
        scale = np.maximum(np.maximum(lam2 * np.max(np.abs(uvals), axis=0),
                                      np.max(np.abs(fvals), axis=0)), 1e-300)
        worst.append(np.max(np.abs(Lu + lam2 * uvals - fvals) / scale,
                            axis=0).tolist())

    sides = (("forward", "relaxation equation residual on t > 0, "
              "derivative by independent quadrature oracle"),
             ("backward", "two-parameter evolution equation residual on "
              "t < 0 via the composition oracle on a spline surrogate"))
    return [CheckResult(f"mode_ode_{side}_k{m.ev.k:02d}", 0.0, w,
                        MODE_ODE_REL, w <= MODE_ODE_REL, note)
            for m, row in zip(modes, zip(*worst))
            for (side, note), w in zip(sides, row)]


def check_delta_asymptote(spec: ProblemSpec, k_list) -> list:
    """Delta_k approaches its closed-form limit at an inverse-square rate."""
    ks = [int(k) for k in k_list]
    if ks != sorted(ks) or len(set(ks)) != len(ks):
        raise ValueError("k_list must be strictly increasing")
    eigs = eigenvalue_table(max(ks))
    L = delta_limit(spec)

    def zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    probes = [ModeRecord(ev=eigs[k - 1], f_k=zero) for k in ks]
    gaps = np.abs(compute_Delta_k(probes, spec) - L)
    lams = np.array([m.ev.lam for m in probes])

    ratios = gaps[1:] / np.maximum(gaps[:-1], 1e-300)
    worst_ratio = float(np.max(ratios)) if len(ratios) else 0.0
    note_vals = ", ".join(f"{g:.3e}" for g in gaps)
    checks = [CheckResult(
        "delta_gap_monotone", 0.0, worst_ratio, 1.0, worst_ratio < 1.0,
        f"|Delta_k - L| along k = {ks}: {note_vals}; L = {L:.10e}")]

    slope = float(np.polyfit(np.log(lams), np.log(np.maximum(gaps, 1e-300)),
                             1)[0])
    checks.append(CheckResult(
        "delta_gap_rate", -2.0, slope, 0.25, abs(slope + 2.0) <= 0.25,
        "log-log rate of the gap, expected inverse-square in the "
        "frequency"))
    return checks


def _loglog_slope(lams: np.ndarray, mags: np.ndarray):
    mask = mags > 0.0
    if int(mask.sum()) < 5:
        return None
    return float(np.polyfit(np.log(lams[mask]), np.log(mags[mask]), 1)[0])


def check_decay_rates(sol: SeriesSolution) -> list:
    """Coefficient decay slopes over k in [10, N], plus tail summability.

    Gates are one-sided: the construction may decay faster than the
    worst-case bounds (it does for polynomial data), never slower.
    Rough or short data makes the rows informational instead.
    """
    spec = sol.spec
    N = spec.N
    T = spec.T
    conclusive = (spec.forcing.hypothesis_status() == "satisfied"
                  and N >= 30)
    lams = sol.lams
    sel = slice(9, N)
    probe = np.array([0.2 * T, 0.7 * T, -0.5 * T])
    fmag = np.abs(sol.time_coefs(probe)).max(axis=1)
    seqs = [
        ("decay_forcing_coeff", fmag, -3.5, -3.2,
         "projected forcing coefficients"),
        ("decay_primary_coeff", np.abs(sol.taus), -3.5, -3.2,
         "forward trace coefficients"),
        ("decay_weighted_trace_coeff", np.abs(sol.phis), -3.5, -3.2,
         "backward weighted-trace coefficients"),
        ("decay_derivative_trace_coeff", np.abs(sol.psis), -1.5, -1.2,
         "backward derivative-trace coefficients"),
    ]
    checks = []
    for name, mags, target, gate, label in seqs:
        slope = _loglog_slope(lams[sel], mags[sel])
        if slope is None:
            checks.append(CheckResult(
                name, target, 0.0, gate - target, True,
                f"{label} vanish on the fitted range; decay holds trivially"))
            continue
        if not conclusive:
            checks.append(CheckResult(
                name, target, slope, gate - target, True,
                f"{label}: slope reported without assertion (hypotheses "
                "unverifiable or fewer than 30 modes)"))
            continue
        checks.append(CheckResult(
            name, target, slope, gate - target, slope <= gate,
            f"{label}: one-sided gate, at least as fast as the bound"))

    taus = np.abs(sol.taus)
    total = float(taus.sum())
    cut = int(0.8 * N)
    frac = float(taus[cut:].sum() / total) if total > 0.0 else 0.0
    checks.append(CheckResult(
        "coefficient_tail", 0.0, frac, 1e-3, frac <= 1e-3,
        "trailing fifth of |tau_k| as a fraction of the sum; the "
        "series is numerically summable"))
    return checks


def verify_solution(sol: SeriesSolution, *,
                    k_max: int = 10) -> VerificationReport:
    """Run every check and assemble the report, deterministic order."""
    checks = []
    checks.extend(check_boundary(sol))
    # both relative gates scale with the same sup |u|
    scale = _u_scale(sol)
    checks.extend(check_gluing(sol, _scale=scale))
    checks.extend(check_nonlocal(sol, _scale=scale))
    checks.extend(check_mode_odes(sol, min(k_max, sol.spec.N)))
    checks.extend(check_delta_asymptote(sol.spec, DELTA_K_LADDER))
    checks.extend(check_decay_rates(sol))
    return VerificationReport.from_checks(checks)
