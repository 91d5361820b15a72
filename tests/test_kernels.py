"""Closed-form mode kernels against routes they were not built from.

mode_matrix integrates the forcing against the Mittag-Leffler kernels in
closed form.  Here the same mode values are rebuilt by an independent
panel quadrature in the scaled variable v = c w^d (n = 48 per panel,
with panel edges at the kinks of tabulated data), the convolution
identity behind every closed form is checked against mpmath, and so is
a single kink next to either end of a convolution.  The forward hinge
quadrature that tabulated forcing at theta != 0 keeps is checked
against a route in x = w^alpha1 with one hinge at a time, and its
Mittag-Leffler table against mittag_leffler.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import fracbessel.solver as solver
from fracbessel.errors import NumericError
from fracbessel.fracops import OperatorParams
from fracbessel.quadrature import gauss_jacobi_rule, gauss_legendre_rule
from fracbessel.solver import (Forcing, ModeRecord, ProblemSpec,
                               SeriesSolution, TimeCoefficient, mode_matrix,
                               solve_modes)
from fracbessel.specfun import MLParams, mittag_leffler
from fracbessel.spectrum import Eigenvalue

# ---------------------------------------------------------------------------
# the quadrature route
#
# Every convolution is int_0^W w^q E_{d,beta}(-cb w^d) f(w) dw.  In the
# scaled variable v = cb w^d the kernel is entire, so geometric panels in
# v converge uniformly in lambda.  Optional breaks (in w) become panel
# edges, for forcing with kinks.

QUAD_NODES = 48


def _v_grid(C, e, n, breaks=()):
    """Nodes and weights for int_0^C v^e g(v) dv: a Jacobi first panel
    ending at min(1, C), then a ratio-4 geometric ladder of Legendre
    panels, every panel also split at the given breaks."""
    edges = [min(1.0, C)]
    while edges[-1] < C * (1.0 - 1e-12):
        edges.append(min(C, 4.0 * edges[-1]))
    edges = np.unique(np.concatenate([edges, [b for b in breaks if b < C]]))
    b0 = edges[0]
    rule0 = (gauss_jacobi_rule(n, e, 0.0) if e != 0.0
             else gauss_legendre_rule(n))
    vs = [b0 * rule0.nodes]
    ws = [b0 ** (e + 1.0) * rule0.weights]
    glr = gauss_legendre_rule(n)
    for lo, hi in zip(edges[:-1], edges[1:]):
        vv = lo + (hi - lo) * glr.nodes
        vs.append(vv)
        ws.append((hi - lo) * glr.weights * vv ** e)
    return np.concatenate(vs), np.concatenate(ws)


def quad_conv(delta, beta, q, cb, W, f, breaks=(), n=QUAD_NODES):
    """int_0^W w^q E_{delta,beta}(-cb w^delta) f(w) dw by v-panels."""
    if W == 0.0:
        return 0.0
    e = (q + 1.0) / delta - 1.0
    C = cb * W ** delta
    v, w = _v_grid(C, e, n, [cb * b ** delta for b in breaks])
    kern = mittag_leffler(MLParams(alpha=delta, beta=beta), -v)
    fv = np.asarray(f((v / cb) ** (1.0 / delta)), dtype=float)
    return cb ** (-(q + 1.0) / delta) / delta * float(w @ (kern * fv))


def quad_mode(sol, idx, t):
    """u_k(t) of one mode with the convolution done by quad_conv."""
    op = sol.spec.op
    m = sol.modes[idx]
    lam = m.ev.lam
    f = m.f_k
    kinks = f.t_grid if f.t_grid is not None else np.empty(0)
    if t > 0.0:
        a, p = op.alpha1, op.p
        cb = lam ** 2 / p ** a
        W = t ** p
        hom = m.tau_k * float(mittag_leffler(MLParams(alpha=a, beta=1.0),
                                             -cb * W ** a))
        conv = quad_conv(a, a, a - 1.0, cb, W,
                         lambda w: f(np.maximum(W - w, 0.0) ** (1.0 / p)),
                         breaks=W - kinks[(kinks > 0.0) & (kinks < t)] ** p)
        return hom + conv / p ** a
    d2, g2 = op.delta2, op.gamma2
    W = -t
    z = -lam ** 2 * W ** d2
    hom = (m.phi_k * W ** (g2 - 2.0)
           * float(mittag_leffler(MLParams(alpha=d2, beta=g2 - 1.0), z))
           - m.psi_k * W ** (g2 - 1.0)
           * float(mittag_leffler(MLParams(alpha=d2, beta=g2), z)))
    conv = quad_conv(d2, d2, d2 - 1.0, lam ** 2, W, lambda w: f(t + w),
                     breaks=kinks[(kinks > t) & (kinks < 0.0)] - t)
    return hom + conv


# ---------------------------------------------------------------------------
# instances


def _tabulated_forcing():
    xg = np.linspace(0.0, 1.0, 41)
    tg = np.linspace(-1.0, 1.0, 33)
    samples = (xg[:, None] ** 4 * (1.0 - xg[:, None]) ** 3
               * (1.0 + 0.5 * np.sin(2.0 * tg[None, :])))
    return Forcing(kind="tabulated", x_grid=tuple(xg), t_grid=tuple(tg),
                   samples=tuple(map(tuple, samples)))


# operators other than the README one, by fixture parameter
_OPERATORS = {
    "tabulated-p1": OperatorParams(0.7, 0.0, 1.5, 1.2, 0.5),
    "tabulated-a0.3": OperatorParams(0.3, 0.2, 1.5, 1.2, 0.5),
    "tabulated-a0.05": OperatorParams(0.05, 0.2, 1.5, 1.2, 0.5),
}


@pytest.fixture(scope="module",
                params=["builtin", "tabulated", "tabulated-p1",
                        "tabulated-a0.3", "tabulated-a0.05"])
def small_solution(request, default_op):
    """README operator (p = 0.8) with either forcing, tabulated forcing
    at theta = 0, where the forward hinges have closed forms, and
    tabulated forcing at alpha1 = 0.3 and 0.05, where the forward hinge
    quadrature's nodes are spread over decades in w."""
    forcing = (Forcing(kind="separable_builtin", space_poly=(1.0,),
                       time_poly=(1.0, 0.5))
               if request.param == "builtin" else _tabulated_forcing())
    op = _OPERATORS.get(request.param, default_op)
    return solve_modes(ProblemSpec(op=op, T=1.0,
                                   nonlocal_points=((0.6, -1.0),),
                                   forcing=forcing, N=10))


class TestAgainstQuadratureRoute:
    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_mode_values_agree(self, small_solution, k, side):
        ts = side * np.array([0.013, 0.08, 0.31, 0.55, 0.77, 1.0])
        got = mode_matrix(small_solution, ts, modes=[k - 1])[0]
        want = np.array([quad_mode(small_solution, k - 1, t) for t in ts])
        gap = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        assert gap <= 1e-7, f"k={k} side={side}: relative gap {gap:.2e}"


# ---------------------------------------------------------------------------
# the convolution identity, by mpmath


def _ml_mp(a, b, terms=120):
    """E_{a,b} as a callable: its Taylor series at the working precision,
    enough terms for |z| <= 40 at a >= 0.7."""
    coef = [mp.rgamma(mp.mpf(a) * n + b) for n in range(terms)][::-1]
    return lambda z: mp.polyval(coef, z)


@pytest.mark.parametrize("alpha,beta,gam,c,W", [
    (0.7, 0.7, 1.0, 6.5, 1.0),          # forward, constant term
    (0.7, 0.7, 1.0 + 1.0 / 0.8, 6.5, 0.9),  # forward, t^1 at p = 0.8
    (1.35, 1.35, 2.0, 5.8, 0.6),        # backward, linear term
    (1.35, 1.75, 2.0, 30.5, 1.0),       # history kernel, beta = d2 + a
    (1.9, 1.9, 3.0, 12.0, 0.8),         # backward, quadratic term
])
def test_closed_form_identity(alpha, beta, gam, c, W):
    """int_0^W w^{beta-1} E_{alpha,beta}(-c w^alpha) (W-w)^{gam-1} dw
    = Gamma(gam) W^{beta+gam-1} E_{alpha,beta+gam}(-c W^alpha)."""
    with mp.workdps(25):
        a, b, g = mp.mpf(alpha), mp.mpf(beta), mp.mpf(gam)
        ml = _ml_mp(a, b)
        lhs = mp.quad(lambda w: w ** (b - 1) * ml(-c * w ** a)
                      * (W - w) ** (g - 1), [0, W / 2, W])
    rhs = (math.gamma(gam) * W ** (beta + gam - 1.0)
           * float(mittag_leffler(MLParams(alpha, beta + gam),
                                  -c * W ** alpha)))
    assert abs(rhs - float(lhs)) <= 1e-12 * abs(float(lhs))


# ---------------------------------------------------------------------------
# a hinge at either end of the convolution


@pytest.mark.parametrize("frac", [1e-8, 1.0 - 1e-8])
def test_hinge_at_either_end(default_op, frac):
    """f_k(t) = (-t - y_j)_+ is one hinge; at t = -W its convolution is
    int_0^x w^{d-1} E_{d,d}(-lam^2 w^d) (x - w) dw with x = W - y_j.  The
    kink sits next to t = 0 (frac 1e-8) or next to t (frac 1 - 1e-8).
    The closed form is written in x itself rather than as a difference
    of kernel integrals up to W and up to y_j, so it keeps full relative
    accuracy at both ends."""
    op = default_op
    d = op.delta2
    lam, W = 2.4, 0.7
    yj = frac * W
    x = W - yj
    coef = TimeCoefficient(t_grid=np.array([-1.0, -yj, 0.0, 1.0]),
                           values=np.array([1.0 - yj, 0.0, 0.0, 0.0]))
    spec = ProblemSpec(op=op, T=1.0, nonlocal_points=((0.6, -1.0),),
                       forcing=Forcing(), N=1)
    mode = ModeRecord(ev=Eigenvalue(k=1, lam=lam, norm_sq=0.5), f_k=coef,
                      tau_k=0.0, phi_k=0.0, psi_k=0.0)
    sol = SeriesSolution(spec=spec, modes=(mode,), tail_estimate=0.0)
    got = mode_matrix(sol, [-W])[0, 0]
    with mp.workdps(25):
        ml = _ml_mp(d, d)
        want = float(mp.quad(lambda w: w ** (d - 1) * (x - w)
                             * ml(-lam ** 2 * w ** d), [0, x]))
    assert want > 0.0
    assert abs(got - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# hinge quadrature: every (mode, W) row at once against one row at a time


def _hinge_quadrature_loop(alpha, c, W, knots, D, q):
    """Reference: solver._hinge_quadrature with each (mode, W) row's
    panel edges in v = |c| w^alpha built on their own, by np.unique over
    its candidates, its kernel values from their own table call and its
    sum taken term by term."""
    out = np.zeros((len(c), len(W)))
    ys = knots ** (1.0 / q)
    table = solver._kernel_table(alpha)
    cum_d = np.cumsum(np.pad(D, ((0, 0), (1, 0))), axis=1)
    cum_ds = np.cumsum(np.pad(D * knots, ((0, 0), (1, 0))), axis=1)
    for i, ac in enumerate(-np.asarray(c)):
        for k, Wk in enumerate(W):
            if not knots.size or not Wk > ys[0]:
                continue
            images = ac * (Wk - ys[ys < Wk]) ** alpha
            steps = math.ceil(math.log(images[0]) / math.log(4.0)) + 1
            ladder = 4.0 ** np.arange(-solver._HINGE_GRADING, steps)
            hi = np.unique(np.concatenate([images,
                                           ladder[ladder < images[0]]]))
            lo = np.concatenate([[0.0], hi[:-1]])
            e = (np.minimum(hi + lo, 2.0 * (ac * Wk ** alpha) - hi - lo)
                 / (hi - lo))
            with np.errstate(divide="ignore"):
                order = np.ceil(solver._HINGE_DIGITS
                                / np.log(e + np.sqrt(e * e - 1.0)))
            order = np.clip(order, 4, solver._HINGE_NODES).astype(int)
            total = 0.0
            for n in np.unique(order):
                rule = gauss_legendre_rule(int(n))
                span = (hi - lo)[order == n][:, None]
                v = (lo[order == n][:, None] + span * rule.nodes).ravel()
                t = (Wk - (v / ac) ** (1.0 / alpha)) ** q
                j = np.searchsorted(knots, t)
                g = t * cum_d[i, j] - cum_ds[i, j]
                for term in (span * rule.weights).ravel() * table(v) * g:
                    total += term
            out[i, k] = total / (alpha * ac)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hinge_quadrature_matches_loop(default_op, seed):
    """Seeded tabulated inputs at the README operator's forward kernel
    give the bits of the one-row-at-a-time reference: knots on a CSV-like
    grid in t, modes from lam = 2.4 to 300, and W below, at and above the
    first knot (the first two with no panel at all) up to T^p."""
    rng = np.random.default_rng(seed)
    op = default_op
    a, p = op.alpha1, op.p
    q = 1.0 / p
    knots = np.sort(rng.choice(np.linspace(1.0 / 16, 1.0, 16),
                               rng.integers(1, 17), replace=False))
    lams = np.concatenate([[2.4], np.sort(rng.uniform(5.0, 300.0, 9))])
    c = -lams ** 2 / p ** a
    D = rng.normal(size=(lams.size, knots.size))
    y0 = knots[0] ** (1.0 / q)
    W = np.concatenate([[0.5 * y0, y0],
                        np.sort(rng.uniform(0.0, 1.0, 30)) ** p, [1.0]])
    got = solver._hinge_quadrature(a, c, W, knots, D, q)
    want = _hinge_quadrature_loop(a, c, W, knots, D, q)
    assert np.array_equal(got, want)
    assert np.all(got[:, :2] == 0.0)
    # a batch whose every W lies at or below the first knot
    assert np.array_equal(
        solver._hinge_quadrature(a, c, W[:2], knots, D, q),
        np.zeros((lams.size, 2)))


# ---------------------------------------------------------------------------
# hinge quadrature against one hinge at a time in x = w^alpha


def _hinges_in_x(alpha, c, W, knots, D, q, panels=400, n=32):
    """sum_j D_j / alpha int_0^{(W-y_j)^alpha} E_{alpha,alpha}(c x)
    ((W - x^{1/alpha})^q - s_j) dx, y_j = s_j^{1/q}: w^{alpha-1} dw
    = dx / alpha, and each hinge on its own uniform composite
    Gauss-Legendre panels, so no kink lies inside a panel."""
    rule = gauss_legendre_rule(n)
    u = (np.arange(panels)[:, None] + rule.nodes).ravel() / panels
    wu = np.tile(rule.weights, panels) / panels
    ys = knots ** (1.0 / q)
    out = np.zeros((len(c), len(W)))
    for i, ci in enumerate(c):
        for k, Wk in enumerate(W):
            on = ys < Wk
            top = (Wk - ys[on]) ** alpha
            x = top[:, None] * u
            g = (Wk - x ** (1.0 / alpha)) ** q - knots[on][:, None]
            kern = mittag_leffler(MLParams(alpha, alpha), ci * x)
            out[i, k] = D[i, on] @ ((kern * g) @ wu * top) / alpha
    return out


@pytest.mark.parametrize("p", [0.5, 0.8])
@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3, 0.7, 1.0])
def test_hinge_quadrature_against_hinges_in_x(alpha, p):
    """Random knots and jumps at lam = 2.4 and 30, W = 0.5 and 1: the
    solver's panels in v = |c| w^alpha against a route that shares no
    panel layout with them, to 1e-10 of each mode's largest value.  (The
    route's 400 and 1600 panels agree to 2.1e-12 of that at alpha = 0.7,
    where x^{1/alpha} is not smooth at x = 0, and to 9e-14 elsewhere.)"""
    rng = np.random.default_rng([int(100 * alpha), int(10 * p)])
    q = 1.0 / p
    knots = np.sort(rng.uniform(0.0, 1.0, 6))
    D = rng.normal(size=(2, knots.size))
    c = -np.array([2.4, 30.0]) ** 2 / p ** alpha
    W = np.array([0.5, 1.0])
    got = solver._hinge_quadrature(alpha, c, W, knots, D, q)
    want = _hinges_in_x(alpha, c, W, knots, D, q)
    gap = np.max(np.abs(got - want) / np.abs(want).max(axis=1, keepdims=True))
    assert gap <= 1e-10, f"relative gap {gap:.2e}"


# ---------------------------------------------------------------------------
# the kernel table of the hinge quadrature


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 0.95, 1.0])
def test_kernel_table_against_mittag_leffler(alpha):
    """Seeded v in [0, 1e7], log-uniform and on [0, 1/2]: the table
    agrees with mittag_leffler to _TABLE_RTOL of its piece's largest
    value, E_{alpha,alpha} at the piece's left end."""
    rng = np.random.default_rng(int(100 * alpha))
    v = np.concatenate([rng.uniform(0.0, 0.5, 2000),
                        np.exp(rng.uniform(math.log(0.5), math.log(1e7),
                                           20000))])
    got = solver._KernelTable(alpha)(v)
    ml = MLParams(alpha, alpha)
    mant, expo = np.frexp(v)
    left = np.where(v < 0.5, 0.0, np.ldexp(0.5, expo))
    gap = np.abs(got - mittag_leffler(ml, -v))
    assert np.all(gap <= solver._TABLE_RTOL * mittag_leffler(ml, -left))


@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_kernel_table_values_are_pointwise(alpha):
    """A value is the same bits alone, inside a 100k-point batch, and
    from a table that was grown piece group by piece group."""
    rng = np.random.default_rng(7)
    v = np.exp(rng.uniform(math.log(1e-6), math.log(5e3), 100_000))
    whole = solver._KernelTable(alpha)
    batch = whole(v)
    grown = solver._KernelTable(alpha)
    for top in (0.3, 3.0, 70.0):
        grown(np.array([top]))
    assert np.array_equal(grown(v), batch)
    for i in rng.choice(v.size, 50, replace=False):
        assert whole(v[i:i + 1])[0] == batch[i]


def test_kernel_table_refuses_a_piece_whose_tail_stays(monkeypatch):
    """A piece whose trailing coefficients never fall under the tail
    bound, here a bound of zero, doubles to _TABLE_MAX_NODES and then
    raises NumericError naming its interval."""
    monkeypatch.setattr(solver, "_TABLE_TAIL", 0.0)
    with pytest.raises(NumericError, match=r"\[0, 0\.5\]"):
        solver._KernelTable(0.7)(np.array([0.1]))
