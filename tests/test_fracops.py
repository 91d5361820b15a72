"""Operator oracles against closed forms they were never built from.

Every expected value below is either a textbook power-rule evaluation
(done by hand in the comments), a term-by-term series summed inside the
test, or a scipy adaptive integral.  None of them route through the
package's own Mittag-Leffler evaluator unless the test is explicitly a
cross-check of two package routes.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad as adaptive_quad

from fracbessel import fracops
from fracbessel.errors import NumericError
from fracbessel.fracops import (OperatorParams, bi_ordinal_hilfer,
                                ek_derivative, ek_integral,
                                hyper_bessel_caputo, rl_integral_right)
from fracbessel.solver import TimeCoefficient, cauchy_solution
from fracbessel.specfun import MLParams, gamma, mittag_leffler, rgamma
from fracbessel.spectrum import bessel_zero
from fracbessel.verify import weighted_spline_candidate


def ml_series(a, b, z, terms=160):
    """Defining series of E_{a,b}; the oracle for small |z|."""
    tot = 0.0
    for k in range(terms):
        tot += z ** k / math.gamma(a * k + b)
    return tot


class TestOperatorParams:
    def test_derived_fields_at_defaults(self, default_op):
        assert_allclose(default_op.p, 0.8, rtol=1e-15)
        assert_allclose(default_op.gamma2, 1.6, rtol=1e-15)
        assert_allclose(default_op.delta2, 1.35, rtol=1e-15)
        assert_allclose(default_op.hilfer_inner_order, 0.4, rtol=1e-15)
        assert_allclose(default_op.hilfer_outer_order, 0.25, rtol=1e-15)

    def test_order_interpolation_endpoints(self):
        lo = OperatorParams(0.7, 0.2, 1.5, 1.2, 0.0)
        hi = OperatorParams(0.7, 0.2, 1.5, 1.2, 1.0)
        assert_allclose(lo.delta2, lo.beta2)
        assert_allclose(hi.delta2, hi.alpha2)
        assert_allclose(lo.gamma2, lo.beta2)
        assert_allclose(hi.gamma2, 2.0)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha1=0.0), dict(alpha1=1.2), dict(theta=1.0),
        dict(alpha2=1.0), dict(alpha2=2.5), dict(beta2=0.9),
        dict(beta2=2.2), dict(mu=-0.1), dict(mu=1.3),
    ])
    def test_validation(self, kwargs):
        base = dict(alpha1=0.7, theta=0.2, alpha2=1.5, beta2=1.2, mu=0.5)
        base.update(kwargs)
        with pytest.raises(ValueError):
            OperatorParams(**base)


class TestRightRLIntegral:
    def test_order_one_is_plain_integral(self):
        got = rl_integral_right(1.0, lambda s: np.ones_like(s), -0.7)
        assert_allclose(got, 0.7, rtol=1e-14)

    @pytest.mark.parametrize("sigma,c", [
        (0.5, 2.0), (1.35, 2.0), (0.4, 1.5), (0.25, 0.35),
    ])
    def test_power_rule(self, sigma, c):
        # I^sigma (-s)^c = Gamma(c+1)/Gamma(c+sigma+1) (-t)^(c+sigma)
        t = -0.8
        want = gamma(c + 1.0) / gamma(c + sigma + 1.0) * (-t) ** (c + sigma)
        got = rl_integral_right(sigma, lambda s: (-s) ** c, t,
                                singular_exponent=c)
        assert_allclose(got, want, rtol=1e-12)
        # the Jacobi weight is doing real work only for non-integer c,
        # but the plain rule must still converge
        got_plain = rl_integral_right(sigma, lambda s: (-s) ** c, t)
        assert_allclose(got_plain, want, rtol=1e-8)

    def test_mittag_leffler_shift(self):
        """I^sigma [(-s)^{b-1} E_{a,b}(lam (-s)^a)] picks up sigma in
        the second index.  Both sides from the in-test series."""
        a, b, lam, sigma, t = 0.9, 1.3, -1.4, 0.6, -0.8

        def g(s):
            s = np.atleast_1d(s)
            return np.array([
                (-si) ** (b - 1.0) * ml_series(a, b, lam * (-si) ** a)
                for si in s
            ])

        want = (-t) ** (sigma + b - 1.0) * ml_series(a, sigma + b,
                                                     lam * (-t) ** a)
        got = rl_integral_right(sigma, g, t, singular_exponent=b - 1.0)
        assert_allclose(got, want, rtol=1e-6)

    def test_semigroup(self):
        """I^{s1} I^{s2} = I^{s1+s2} on a fractional power."""
        s1, s2, c, t = 0.6, 0.75, 1.5, -0.9

        def inner(s):
            s = np.atleast_1d(s)
            return np.array([
                rl_integral_right(s2, lambda y: (-y) ** c, float(si),
                                  singular_exponent=c)
                if si < 0.0 else 0.0
                for si in s
            ])

        got = rl_integral_right(s1, inner, t, singular_exponent=c + s2)
        want = rl_integral_right(s1 + s2, lambda y: (-y) ** c, t,
                                 singular_exponent=c)
        assert_allclose(got, want, rtol=1e-7)

    def test_array_t_matches_scalar_calls(self):
        """An array of t makes one integrand call for all its nodes and
        returns what the scalar calls return."""
        sigma, q = 0.4, -0.4
        ts = -np.geomspace(1e-3, 1.0, 7)
        calls = []

        def g(s):
            calls.append(np.shape(s))
            return np.cos(3.0 * s) * (-s) ** q

        got = rl_integral_right(sigma, g, ts, n=64, singular_exponent=q)
        assert calls == [(7 * 64,)]
        want = [rl_integral_right(sigma, g, float(t), n=64,
                                  singular_exponent=q) for t in ts]
        assert got.shape == ts.shape
        assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_batch_g_matches_per_column_calls(self):
        """A g returning one row per node makes one call and gives one
        row per t, each column what the one-column g gives."""
        sigma, q = 0.4, -0.4
        ts = -np.geomspace(1e-3, 1.0, 5)
        freqs = (1.0, 2.0, 3.5)
        calls = []

        def batch(s):
            calls.append(np.shape(s))
            return np.column_stack([np.cos(f * s) * (-s) ** q
                                    for f in freqs])

        got = rl_integral_right(sigma, batch, ts, n=64, singular_exponent=q)
        assert calls == [(5 * 64,)]
        assert got.shape == (5, 3)
        for j, f in enumerate(freqs):
            want = rl_integral_right(sigma, lambda s: np.cos(f * s) * (-s) ** q,
                                     ts, n=64, singular_exponent=q)
            assert np.array_equal(got[:, j], want)
        row = rl_integral_right(sigma, batch, float(ts[2]), n=64,
                                singular_exponent=q)
        assert row.shape == (3,)
        assert np.array_equal(row, got[2])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rl_integral_right(0.0, lambda s: s, -0.5)
        with pytest.raises(ValueError):
            rl_integral_right(0.5, lambda s: s, 0.3)
        with pytest.raises(ValueError):
            rl_integral_right(0.5, lambda s: s, np.array([-0.5, 0.0]))


def _bi_ordinal(mu):
    op = OperatorParams(0.7, 0.2, 1.5, 1.2, mu)
    return lambda u, u0, t: bi_ordinal_hilfer(op, u, t, n=32,
                                              inner_exponent=3.0)


def _hyper_bessel(alpha1):
    op = OperatorParams(alpha1, 0.3, 1.5, 1.2, 0.5)
    return lambda u, u0, t: hyper_bessel_caputo(op, u, u0, t, n=64)


# oracle(u, u0, t), the side of t = 0 it lives on, and the power the
# sample functions carry at 0
BATCH_ORACLES = {
    "rl_integral_right": (lambda u, u0, t: rl_integral_right(
        0.4, u, t, n=64, singular_exponent=-0.4), -1.0, -0.4),
    "ek_integral": (lambda u, u0, t: ek_integral(
        0.2, 0.6, 1.3, u, t, n=64), 1.0, 1.6),
    "ek_derivative-0.75": (lambda u, u0, t: ek_derivative(
        0.2, 0.75, 1.3, u, t, n=64), 1.0, 1.6),
    "ek_derivative-1.6": (lambda u, u0, t: ek_derivative(
        0.2, 1.6, 1.3, u, t, n=64), 1.0, 1.6),
    "ek_derivative-2.0": (lambda u, u0, t: ek_derivative(
        0.2, 2.0, 1.3, u, t, n=64), 1.0, 1.6),
    "hyper_bessel_caputo-0.7": (_hyper_bessel(0.7), 1.0, 0.56),
    "hyper_bessel_caputo-1.0": (_hyper_bessel(1.0), 1.0, 0.7),
    "bi_ordinal_hilfer-a,c>0": (_bi_ordinal(0.5), -1.0, 3.0),
    "bi_ordinal_hilfer-c=0": (_bi_ordinal(0.0), -1.0, 3.0),
    "bi_ordinal_hilfer-a=0": (_bi_ordinal(1.0), -1.0, 3.0),
}


@pytest.mark.parametrize("name", list(BATCH_ORACLES))
def test_batch_u_matches_per_column_calls(name):
    """Every oracle and branch takes a u with one column per function
    (and, for the hyper-Bessel derivative, one u0 per column), calls it
    once and gives one row per t, each column the bits of the call with
    that column's function alone."""
    oracle, side, c = BATCH_ORACLES[name]
    ts = side * np.array([0.2, 0.45, 0.8])
    offsets, freqs = np.array([0.3, -1.2, 2.0]), (1.0, 2.0, 3.5)

    def column(j):
        return lambda s: offsets[j] + (side * s) ** c * np.cos(freqs[j] * s)

    calls = []

    def batch(s):
        calls.append(np.shape(s))
        return np.column_stack([column(j)(s) for j in range(3)])

    got = oracle(batch, offsets, ts)
    assert len(calls) == 1
    assert got.shape == (3, 3)
    for j in range(3):
        assert np.array_equal(got[:, j], oracle(column(j), offsets[j], ts))


class TestEKIntegral:
    def test_constant(self):
        # I^{g,d}_b 1 = Gamma(g+1)/Gamma(g+d+1)
        g, d, b = 0.7, 0.4, 0.8
        want = gamma(g + 1.0) / gamma(g + d + 1.0)
        got = ek_integral(g, d, b, lambda s: np.ones_like(s), 0.6)
        assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("g,d,b,c", [
        (0.0, 0.3, 0.8, 2.0), (0.7, 0.4, 1.25, 1.5), (-0.35, 1.6, 0.5, 0.8),
    ])
    def test_power_rule(self, g, d, b, c):
        # I^{g,d}_b tau^c = t^c Gamma(g+1+c/b)/Gamma(g+d+1+c/b)
        t = 0.55
        want = t ** c * gamma(g + 1.0 + c / b) / gamma(g + d + 1.0 + c / b)
        got = ek_integral(g, d, b, lambda s: s ** c, t,
                          singular_exponent=c / b)
        assert_allclose(got, want, rtol=1e-12)

    def test_reduces_to_weighted_left_rl(self):
        """gma=0, beta=1: t^d I^{0,d}_1 g equals the left RL integral,
        checked against scipy adaptive quadrature with the algebraic
        endpoint weight handled by QUADPACK."""
        d, t = 0.6, 0.9

        def g(s):
            return np.cos(3.0 * np.asarray(s))

        num, _ = adaptive_quad(lambda v: float(g(t * v)), 0.0, 1.0,
                               weight="alg", wvar=(0.0, d - 1.0),
                               epsabs=1e-13, epsrel=1e-12)
        want = num / gamma(d)
        got = ek_integral(0.0, d, 1.0, g, t)
        assert_allclose(got, want, rtol=1e-8)

    def test_array_t_matches_scalar_calls(self):
        g, d, b, c = 0.7, 0.4, 1.25, 1.5
        ts = np.geomspace(0.05, 2.0, 6)
        calls = []

        def f(s):
            calls.append(np.shape(s))
            return np.cos(s) * s ** c

        got = ek_integral(g, d, b, f, ts, n=64, singular_exponent=c / b)
        assert calls == [(6 * 64,)]
        want = [ek_integral(g, d, b, f, float(t), n=64,
                            singular_exponent=c / b) for t in ts]
        assert got.shape == ts.shape
        assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_validation(self):
        one = lambda s: np.ones_like(s)
        with pytest.raises(ValueError):
            ek_integral(0.5, 0.0, 1.0, one, 0.5)
        with pytest.raises(ValueError):
            ek_integral(0.5, 0.5, -1.0, one, 0.5)
        with pytest.raises(ValueError):
            ek_integral(0.5, 0.5, 1.0, one, -0.5)
        with pytest.raises(ValueError):
            ek_integral(-1.5, 0.5, 1.0, one, 0.5)


class TestEKDerivative:
    def test_left_inverse_of_integral(self):
        g, d, b = 0.4, 0.7, 1.1

        def forward(s):
            s = np.atleast_1d(s)
            return np.array([
                ek_integral(g, d, b, lambda y: y ** 2, float(si))
                for si in s
            ])

        got = ek_derivative(g, d, b, forward, 0.8)
        assert_allclose(got, 0.64, rtol=1e-4)

    def test_constant(self):
        # D^{g,d}_b 1 = Gamma(g+d+1)/Gamma(g+1): the product of the
        # first-order factors telescopes against the inner integral
        g, d, b = 0.3, 0.6, 0.9
        want = gamma(g + d + 1.0) / gamma(g + 1.0)
        got = ek_derivative(g, d, b, lambda s: np.ones_like(s), 0.7)
        assert_allclose(got, want, rtol=1e-5)

    def test_power_rule(self):
        g, d, b, c, t = 0.2, 0.75, 1.3, 1.6, 0.6
        want = t ** c * gamma(g + d + 1.0 + c / b) / gamma(g + 1.0 + c / b)
        got = ek_derivative(g, d, b, lambda s: s ** c, t)
        assert_allclose(got, want, rtol=1e-5)

    def test_integer_order_degenerate_case(self):
        # d=1, g=0, b=1 on g(tau)=tau: (1 + t d/dt) tau = 2t, and the
        # central difference is exact on linear functions
        got = ek_derivative(0.0, 1.0, 1.0, lambda s: np.asarray(s), 0.4)
        assert_allclose(got, 0.8, rtol=1e-10)

    @pytest.mark.parametrize("d,stencil", [(0.75, 3), (1.6, 9), (2.0, 9)])
    def test_array_t_matches_scalar_calls(self, d, stencil):
        """Every point of the (for d > 1 nested) stencils of every t goes
        to g in one call, and each value equals its scalar call."""
        g, b, c, n = 0.2, 1.3, 1.6, 64
        ts = np.geomspace(0.05, 0.9, 5)
        calls = []

        def f(s):
            calls.append(np.shape(s))
            return np.cos(s) * s ** c

        got = ek_derivative(g, d, b, f, ts, n=n)
        nodes = 1 if d == math.ceil(d) else n
        assert calls == [(5 * stencil * nodes,)]
        want = [ek_derivative(g, d, b, f, float(t), n=n) for t in ts]
        assert got.shape == ts.shape
        assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_failed_difference_names_t(self):
        """A non-finite difference names the first t it hit, for a batch
        u as for a single one."""
        ts = np.array([0.2, 0.6])

        def bad(s):
            return np.where(s > 0.5, np.nan, s)

        for u in (bad, lambda s: np.column_stack([s, bad(s)])):
            with pytest.raises(NumericError, match=r"t=6\.000e-01"):
                ek_derivative(0.0, 1.0, 1.0, u, ts)

    def test_validation(self):
        with pytest.raises(ValueError):
            ek_derivative(0.3, 0.0, 1.0, lambda s: s, 0.5)
        with pytest.raises(ValueError):
            ek_derivative(0.3, 0.5, 1.0, lambda s: s, -0.5)


class TestHyperBesselCaputo:
    def test_kills_constants(self, default_op):
        got = hyper_bessel_caputo(default_op, lambda s: 4.2 * np.ones_like(s),
                                  4.2, 0.5)
        assert got == 0.0

    def test_degenerate_first_order(self):
        # alpha1=1, theta=0: plain d/dt, so u=t gives 1
        op = OperatorParams(1.0, 0.0, 1.5, 1.2, 0.5)
        got = hyper_bessel_caputo(op, lambda s: np.asarray(s), 0.0, 0.37)
        assert_allclose(got, 1.0, rtol=1e-6)

    def test_degenerate_weighted_power(self):
        # alpha1=1, theta=0.3: t^0.3 d/dt t^0.7 = 0.7 for every t
        op = OperatorParams(1.0, 0.3, 1.5, 1.2, 0.5)
        for t in (0.2, 0.55, 0.9):
            got = hyper_bessel_caputo(op, lambda s: np.asarray(s) ** 0.7,
                                      0.0, t)
            assert_allclose(got, 0.7, rtol=1e-6)

    @pytest.mark.parametrize("alpha1,theta", [(0.5, 0.0), (0.8, 0.3),
                                              (1.0, -0.5)])
    def test_mittag_leffler_eigenrelation(self, alpha1, theta):
        """The relaxation kernel E_{a,1}(-(lam^2/p^a) t^{pa}) is an
        eigenfunction with eigenvalue -lam^2.

        The kernel itself comes from the package evaluator (the naive
        float64 series cancels catastrophically at |z| ~ 24); the two
        independent routes here are the formula and the quadrature
        oracle, and the evaluator is pinned against mpmath elsewhere.
        """
        op = OperatorParams(alpha1, theta, 1.5, 1.2, 0.5)
        lam = bessel_zero(2).lam
        cb = lam ** 2 / op.p ** alpha1
        kernel = MLParams(alpha=alpha1, beta=1.0)

        def u(s):
            s = np.asarray(s, dtype=float)
            return mittag_leffler(kernel, -cb * s ** (op.p * alpha1))

        t = 0.6
        got = hyper_bessel_caputo(op, u, 1.0, t)
        want = -lam ** 2 * float(u(np.array([t]))[0])
        assert_allclose(got, want, rtol=1e-4)

    @pytest.mark.parametrize("alpha1,per_t", [(0.7, 3 * 64), (1.0, 4)])
    def test_array_t_matches_scalar_calls(self, alpha1, per_t):
        op = OperatorParams(alpha1, 0.3, 1.5, 1.2, 0.5)
        ts = np.array([0.2, 0.45, 0.8])
        calls = []

        def u(s):
            calls.append(np.shape(s))
            return 0.3 + s ** (op.p * alpha1) * np.cos(s)

        got = hyper_bessel_caputo(op, u, 0.3, ts, n=64)
        assert calls == [(3 * per_t,)]
        want = [hyper_bessel_caputo(op, u, 0.3, float(t), n=64) for t in ts]
        assert got.shape == ts.shape
        assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_domain(self, default_op):
        with pytest.raises(ValueError):
            hyper_bessel_caputo(default_op, lambda s: s, 0.0, -0.2)


class TestBiOrdinalHilfer:
    def test_mu_zero_is_rl_derivative(self):
        # mu=0 collapses to the right RL derivative of order beta2
        op = OperatorParams(0.7, 0.2, 1.5, 1.2, 0.0)
        t = -0.6
        for c in (3.0, 2.5):
            want = gamma(c + 1.0) / gamma(c + 1.0 - 1.2) * (-t) ** (c - 1.2)
            got = bi_ordinal_hilfer(op, lambda s: (-s) ** c, t,
                                    inner_exponent=c)
            assert_allclose(got, want, rtol=1e-4, err_msg=f"c={c}")

    def test_mu_one_is_caputo_derivative(self):
        # mu=1 collapses to the right Caputo derivative of order alpha2;
        # on powers (-t)^c with c > 1 Caputo and RL agree
        op = OperatorParams(0.7, 0.2, 1.5, 1.2, 1.0)
        t = -0.6
        for c in (3.0, 2.5):
            want = gamma(c + 1.0) / gamma(c + 1.0 - 1.5) * (-t) ** (c - 1.5)
            got = bi_ordinal_hilfer(op, lambda s: (-s) ** c, t,
                                    inner_exponent=c)
            assert_allclose(got, want, rtol=1e-4, err_msg=f"c={c}")

    def test_general_composition_power_rule(self, default_op):
        # for powers the composition acts at the effective order delta2
        t = -0.7
        c = 3.0
        d2 = default_op.delta2
        want = gamma(c + 1.0) / gamma(c + 1.0 - d2) * (-t) ** (c - d2)
        got = bi_ordinal_hilfer(default_op, lambda s: (-s) ** c, t,
                                inner_exponent=c)
        assert_allclose(got, want, rtol=1e-4)

    @pytest.mark.parametrize("mu,per_t", [(0.0, 3 * 32), (0.5, 32 * 3 * 32)])
    def test_array_t_matches_scalar_calls(self, mu, per_t):
        """c = 0 (mu = 0) differences the inner integral at t itself,
        c > 0 at every outer node; either way u is sampled once."""
        op = OperatorParams(0.7, 0.2, 1.5, 1.2, mu)
        ts = np.array([-0.7, -0.4, -0.15])
        calls = []

        def u(s):
            calls.append(np.shape(s))
            return (-s) ** 3 * np.cos(s)

        got = bi_ordinal_hilfer(op, u, ts, n=32, inner_exponent=3.0)
        assert calls == [(3 * per_t,)]
        want = [bi_ordinal_hilfer(op, u, float(t), n=32, inner_exponent=3.0)
                for t in ts]
        assert got.shape == ts.shape
        assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_too_close_to_zero(self, default_op):
        with pytest.raises(NumericError):
            bi_ordinal_hilfer(default_op, lambda s: (-s) ** 2, -5e-5)

    def test_nonintegrable_outer_exponent(self, default_op):
        with pytest.raises(ValueError):
            bi_ordinal_hilfer(default_op, lambda s: (-s) ** 2, -0.5,
                              outer_exponent=-1.2)

    def test_positive_t_rejected(self, default_op):
        with pytest.raises(ValueError):
            bi_ordinal_hilfer(default_op, lambda s: (-s) ** 2, 0.5)


class TestCauchyPlugBack:
    """Feed the closed-form backward solution through the operator
    oracle and demand the equation it claims to solve."""

    @pytest.mark.parametrize("params,xi0,xi1", [
        ((1.5, 1.2, 0.5), 0.8, -0.5),
        ((1.8, 1.5, 0.3), 0.8, -0.5),
        ((1.5, 1.2, 0.5), 0.0, 0.0),
    ])
    def test_solution_satisfies_equation(self, params, xi0, xi1):
        alpha2, beta2, mu = params
        op = OperatorParams(0.7, 0.2, alpha2, beta2, mu)
        g2, d2 = op.gamma2, op.delta2
        lam_coeff = -4.0

        g = TimeCoefficient(poly=(1.0, 0.3))
        u = cauchy_solution(lam_coeff, alpha2, beta2, mu, xi0, xi1, g)
        cand = weighted_spline_candidate(u, g2, 1.0,
                                         knot0=xi0 * rgamma(g2 - 1.0))
        for t in (-0.5, -0.25):
            got = bi_ordinal_hilfer(op, cand, t, n=160,
                                    inner_exponent=g2 - 2.0,
                                    outer_exponent=d2 - 2.0)
            want = lam_coeff * u(t) + float(g(t))
            assert_allclose(got, want, rtol=1e-3,
                            err_msg=f"params={params} t={t}")

    def test_trace_recovery(self):
        """The weighted limits that define the data must come back out
        of the solution formula."""
        alpha2, beta2, mu = 1.5, 1.2, 0.5
        op = OperatorParams(0.7, 0.2, alpha2, beta2, mu)
        g2 = op.gamma2
        xi0, xi1 = 0.8, -0.5
        u = cauchy_solution(-4.0, alpha2, beta2, mu, xi0, xi1,
                            TimeCoefficient(poly=(0.0,)))
        # I^{2-g2} u -> xi0 * 1/Gamma(g2-1) * Gamma(g2-1) = xi0 ... the
        # raw weighted limit of u itself is xi0/Gamma(g2-1):
        q = 1e-7
        lead = float(u(-q)) * q ** (2.0 - g2)
        assert_allclose(lead, xi0 * rgamma(g2 - 1.0), rtol=1e-5)

    def test_rejects_forward_times(self):
        u = cauchy_solution(-4.0, 1.5, 1.2, 0.5, 1.0, 0.0,
                            TimeCoefficient(poly=(0.0,)))
        with pytest.raises(ValueError):
            u(0.3)
        with pytest.raises(ValueError):
            u(np.array([-0.5, 0.0]))


def test_fracops_imports_no_solver_side_module():
    """The oracles share no code with the construction: fracops.py
    imports nothing from solver, verify or spectrum."""
    banned = {"solver", "verify", "spectrum"}
    tree = ast.parse(Path(fracops.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        found += [n for n in names if banned & set(n.split("."))]
    assert not found, f"fracops imports {found}"
