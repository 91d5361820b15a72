"""Special-function layer: gamma, Bessel J, and the Mittag-Leffler
evaluator whose negative-axis accuracy everything else leans on.

The frozen reference table in _ml_reference.py was generated by
tests/tools/gen_ml_reference.py with mpmath along two independent
routes (direct summation at high precision and the Laplace-transform
integral); a table entry exists only where the routes agreed.
"""

import ast
import math
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erfcx

from fracbessel import specfun
from fracbessel.specfun import MLParams, bessel_j, gamma, mittag_leffler

from _ml_reference import ML_REFERENCE
from tools.gen_ml_reference import _taylor


class TestGamma:
    def test_trivial_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(5.0) == 24.0
        assert_allclose(gamma(0.5), math.sqrt(math.pi), rtol=1e-15)

    @pytest.mark.parametrize("x,expected", [
        (0.1, 9.51350769866873),
        (-0.5, -3.544907701811032),
        (-2.5, -0.9453087204829419),
        (150.5, 4.661072627097378e+261),
    ])
    def test_against_high_precision_oracle(self, x, expected):
        assert_allclose(gamma(x), expected, rtol=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_pole_rejected(self, x):
        with pytest.raises(ValueError):
            gamma(x)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0

    def test_first_j0_zero(self):
        assert abs(bessel_j(0, 2.404825557695773)) <= 1e-12

    @pytest.mark.parametrize("order,x,expected", [
        (0, 1.0, 0.7651976865579666),
        (0, 2.5, -0.048383776468198),
        (0, 100.0, 0.019985850304223122),
        (0, 9500.0, 0.00468419781309486),
        (1, 1.0, 0.4400505857449335),
        (1, 7.3, 0.08257043049325784),
        (1, 100.0, -0.07714535201411216),
    ])
    def test_against_high_precision_oracle(self, order, x, expected):
        # spec of the layer is absolute accuracy over [0, 1e4]
        assert abs(bessel_j(order, x) - expected) <= 1e-12

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, -0.5)

    def test_unsupported_order_rejected(self):
        # J2 comes from J0 and J1 by Bessel's equation where it is needed
        for order in (2, 3):
            with pytest.raises(ValueError, match="supports orders"):
                bessel_j(order, 1.0)

    def test_array_argument(self):
        xs = np.linspace(0.0, 20.0, 7)
        vals = bessel_j(0, xs)
        assert vals.shape == xs.shape
        for x, v in zip(xs, vals):
            assert v == bessel_j(0, float(x))


class TestMLParams:
    @pytest.mark.parametrize("alpha", [0.0, -0.3, 2.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            MLParams(alpha=alpha, beta=1.0)

    def test_valid(self):
        p = MLParams(alpha=0.5, beta=-1.0)
        assert p.alpha == 0.5 and p.beta == -1.0


class TestMittagLefflerFrozenTable:
    def test_reference_sweep(self):
        """Every frozen (alpha, beta, z) entry to relative 1e-10."""
        worst = 0.0
        for a, b, z, ref in ML_REFERENCE:
            got = float(mittag_leffler(MLParams(a, b), z))
            rel = abs(got - ref) / max(abs(ref), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-10, (
                f"E_{{{a},{b}}}({z}) = {got!r}, reference {ref!r}, "
                f"rel {rel:.3e}")
        # headroom is part of the contract story; record it in the
        # failure message of a loose sanity assert
        assert worst < 1e-9, f"worst relative error {worst:.3e}"


class TestMittagLefflerIdentities:
    def test_exponential_reduction(self):
        zs = np.linspace(-30.0, 30.0, 121)
        got = mittag_leffler(MLParams(1.0, 1.0), zs)
        assert_allclose(got, np.exp(zs), rtol=1e-10)

    def test_value_at_zero_is_reciprocal_gamma(self):
        for a, b in [(0.5, 0.7), (1.3, 1.0), (0.7, 2.0), (2.0, 1.5)]:
            assert_allclose(float(mittag_leffler(MLParams(a, b), 0.0)),
                            1.0 / gamma(b), rtol=1e-14)

    def test_cosine_reduction(self):
        xs = np.linspace(0.05, 50.0, 200)
        got = mittag_leffler(MLParams(2.0, 1.0), -xs ** 2)
        assert np.max(np.abs(got - np.cos(xs))) <= 1e-10

    def test_sinc_reduction(self):
        xs = np.linspace(0.05, 50.0, 200)
        got = mittag_leffler(MLParams(2.0, 2.0), -xs ** 2)
        assert np.max(np.abs(got - np.sin(xs) / xs)) <= 1e-10

    def test_half_order_erfcx_reduction(self):
        # E_{1/2,1}(z) = exp(z^2) erfc(-z); for z < 0 that is erfcx(-z)
        zs = -np.geomspace(1e-3, 50.0, 60)
        got = mittag_leffler(MLParams(0.5, 1.0), zs)
        assert_allclose(got, erfcx(-zs), rtol=1e-10)

    def test_scalar_in_scalar_out(self):
        out = mittag_leffler(MLParams(0.7, 1.0), -3.0)
        assert np.ndim(out) == 0


class TestRegimeContinuity:
    """The evaluator switches between series, contour, and asymptotic
    blocks; the recurrence E_{a,b}(z) = z E_{a,b+a}(z) + 1/Gamma(b) must
    not notice.
    """

    @pytest.mark.parametrize("a,b", [
        (0.3, 1.0), (0.6, 1.4), (0.7, 0.2), (1.2, 2.0), (1.5, 1.0),
        (1.9, 0.9),
    ])
    def test_recurrence_across_regimes(self, a, b):
        # The two sides cancel to O(1/z) at large |z|, so the honest
        # denominator is the size of the terms being combined, not the
        # tiny result.
        zs = -np.geomspace(1e-2, 1e6, 160)
        lhs = np.asarray(mittag_leffler(MLParams(a, b), zs))
        term = zs * np.asarray(mittag_leffler(MLParams(a, b + a), zs))
        rhs = term + 1.0 / gamma(b)
        scale = np.maximum.reduce([np.abs(lhs), np.abs(term),
                                   np.full_like(zs, abs(1.0 / gamma(b)))])
        rel = np.abs(lhs - rhs) / scale
        assert np.max(rel) <= 1e-8
        # away from the block-switch bands the identity holds much
        # tighter; the boundaries themselves get the looser gate above
        firm = (np.abs(zs) <= 3.0) | (np.abs(zs) >= 1e5)
        assert np.max(rel[firm]) <= 1e-10

    def test_recurrence_positive_axis(self):
        zs = np.linspace(0.1, 25.0, 50)
        for a, b in [(0.5, 1.0), (1.1, 1.3)]:
            lhs = mittag_leffler(MLParams(a, b), zs)
            rhs = zs * mittag_leffler(MLParams(a, b + a), zs) + 1.0 / gamma(b)
            assert_allclose(lhs, rhs, rtol=1e-8)


class TestNegativeAxisAsymptotics:
    @pytest.mark.parametrize("a,b", [(0.6, 1.4), (1.5, 1.0), (1.2, 2.0)])
    def test_leading_term_bound_at_minus_1e6(self, a, b):
        """|z E(z) + 1/Gamma(b-a)| at z = -1e6 sits under the 2/|z| scale
        of the next expansion term."""
        z = -1e6
        val = float(mittag_leffler(MLParams(a, b), z))
        err = abs(z * val + 1.0 / gamma(b - a))
        assert err <= 2.0 / abs(z), f"(a,b)=({a},{b}): {err:.3e}"

    @pytest.mark.parametrize("a,b", [(0.6, 1.4), (0.8, 1.0), (1.2, 2.0)])
    def test_limits_improve_with_magnitude(self, a, b):
        """E -> 0 and z E -> -1/Gamma(b-a), errors shrinking along
        z in {-1e3, -1e4, -1e6}."""
        lim = -1.0 / gamma(b - a)
        errs_e = []
        errs_ze = []
        for z in (-1e3, -1e4, -1e6):
            e = float(mittag_leffler(MLParams(a, b), z))
            errs_e.append(abs(e))
            errs_ze.append(abs(z * e - lim))
        assert errs_e[0] > errs_e[1] > errs_e[2]
        assert errs_ze[0] > errs_ze[1] > errs_ze[2]

    def test_bounded_decay_envelope(self):
        """Lemma-3 shape |E| <= M*/(1+|z|) on the negative axis; the
        suite measures the constant instead of assuming one."""
        zs = -np.geomspace(1e-3, 1e8, 100)
        m_star = 0.0
        for a, b in [(0.3, 0.6), (0.7, 1.0), (1.35, 1.6), (1.9, 1.0)]:
            vals = np.abs(np.asarray(mittag_leffler(MLParams(a, b), zs)))
            m_star = max(m_star, float(np.max(vals * (1.0 + np.abs(zs)))))
        assert math.isfinite(m_star)
        # the constant itself is only measured, never pinned; near a = 2
        # the oscillatory branch pushes it past 60
        assert m_star < 100.0, f"empirical M* = {m_star:.3f}"

    def test_complete_monotonicity_spot_check(self):
        # a = 1 is exp(-t), which underflows to an exact 0 long before
        # t = 1e4; keep the grid inside the representable range
        for a, t_hi in [(0.3, 1e4), (0.7, 1e4), (1.0, 50.0)]:
            ts = np.geomspace(1e-3, t_hi, 80)
            vals = np.asarray(mittag_leffler(MLParams(a, 1.0), -ts))
            assert np.all(vals > 0.0)
            assert np.all(np.diff(vals) < 0.0)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=1.9),
    b=st.floats(min_value=0.3, max_value=2.0),
    z=st.floats(min_value=-1e5, max_value=20.0),
)
def test_recurrence_property(a, b, z):
    lhs = float(mittag_leffler(MLParams(a, b), z))
    assume(math.isfinite(lhs))  # past float64 range both sides are inf
    rhs = z * float(mittag_leffler(MLParams(a, b + a), z)) + 1.0 / gamma(b)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_positive_axis_overflow_is_inf():
    # E_{1/4,1}(6) ~ 4 exp(6^4) exceeds float64 range
    assert mittag_leffler(MLParams(0.25, 1.0), 6.0) == math.inf


@settings(max_examples=40, deadline=None)
@given(z=st.floats(min_value=-30.0, max_value=30.0))
def test_exponential_property(z):
    got = float(mittag_leffler(MLParams(1.0, 1.0), z))
    assert abs(got - math.exp(z)) <= 1e-10 * max(1.0, math.exp(z))


# ---------------------------------------------------------------------------
# the contour against mpmath where the pole pair comes near the old collapsed
# contour (the sharp dip) or the arc radius matters


def _assert_matches_taylor(a, b, zs, got):
    """|got - ref| <= 1e-10 max(|ref|, 1e-5): the frozen table's relative
    gate, with a 1e-15 absolute floor at zeros of E."""
    for z, g in zip(zs, got):
        ref = float(_taylor(a, b, float(z)))
        assert abs(g - ref) <= 1e-10 * max(abs(ref), 1e-5), (
            f"E_{{{a},{b}}}({z!r}) = {g!r}, mpmath {ref!r}")


@pytest.mark.parametrize("a,b", [(1.35, 0.6), (1.35, 1.35), (1.35, 1.6),
                                 (1.1, 1.0), (1.9, 1.2)])
def test_sharp_dip_values_match_loop(a, b):
    """The evaluator on seeded sharp-dip sets against mpmath's Taylor
    loop, on a seeded subsample of each batch and on a one-point call.
    (1.9, 1.2) has no dip, cos(pi alpha) > 0."""
    rng = np.random.default_rng(17)
    z = -np.exp(rng.uniform(np.log(0.5), np.log(200.0), 3000))
    p = MLParams(a, b)
    got = mittag_leffler(p, z)
    pick = rng.choice(z.size, 24, replace=False)
    _assert_matches_taylor(a, b, z[pick], got[pick])
    _assert_matches_taylor(a, b, [-20.0], [mittag_leffler(p, -20.0)])


@pytest.mark.parametrize("a,b,z", [(1.9, 0.6, -1.0230181821927944),
                                   (1.7, 0.6, -0.9436044622177464),
                                   (1.35, 1.0, -2.2151562573033607)])
def test_contour_near_a_zero_at_the_arc_radius(a, b, z):
    """Points near zeros of E with |z| ~ 1 reach the contour with an arc
    radius below 1; 16 arc nodes lose about four digits here."""
    _assert_matches_taylor(a, b, [z], [mittag_leffler(MLParams(a, b), z)])


@pytest.mark.parametrize("a,b,z", [(0.04, 3.6, -0.77), (0.055, 3.9, -0.6),
                                   (0.05, 0.2, -0.75), (0.09, 2.0, -0.69)])
def test_small_alpha_below_unit_modulus(a, b, z):
    """For small alpha and |z| < 1 the series needs 63 to 119 terms; its
    planned count gives them, so the series accepts the point.  Under a
    fixed 48-term budget the contour took it, where a pole modulus
    |z|^{1/alpha} below the arc radius lost every digit (1e6 for 0.15)."""
    zz = np.array([z])
    safe, count = specfun._series_plan(a, b, zz)
    _, ok = specfun._series_block(a, b, zz, count)
    assert safe[0] and ok[0], f"count {count[0]}"
    _assert_matches_taylor(a, b, [z], [mittag_leffler(MLParams(a, b), z)])


def _ml_alpha_two_mp(b: int, z: np.ndarray) -> np.ndarray:
    """E_{2,b}(z) for z < 0 from mpmath's cos and sin of sqrt(-z), walked
    up by E_{2,m}(z) = (E_{2,m-2}(z) - 1/Gamma(m-2)) / z."""
    out = []
    with mp.workdps(30):
        rg = [None] + [1 / mp.gamma(m) for m in range(1, b)]
        for zi in map(mp.mpf, z):
            x = mp.sqrt(-zi)
            m, val = (1, mp.cos(x)) if b % 2 else (2, mp.sin(x) / x)
            while m < b:
                val = (val - rg[m]) / zi
                m += 2
            out.append(float(val))
    return np.array(out)


@pytest.mark.parametrize("b", range(1, 10))
def test_alpha_two_integer_beta_against_mpmath(b):
    """E_{2,b} at integer b on |z| in [0.5, 3000]: relative error 1e-12
    for b >= 4, where E_{2,b}(-x^2) > 0, and 1e-12 of max(|E|, 1/|z|)
    for the oscillating b <= 3.  The closed forms' recurrence in b
    cancels at small |z| (4.6e-11 at b = 9, z = -0.5), and the rounding
    of sqrt(-z) alone moved cos by 5e-12 of 1/|z| near its zeros."""
    z = -np.geomspace(0.5, 3000.0, 2000)
    got = mittag_leffler(MLParams(2.0, float(b)), z)
    ref = _ml_alpha_two_mp(b, z)
    scale = np.abs(ref) if b >= 4 else np.maximum(np.abs(ref), 1.0 / -z)
    err = np.abs(got - ref) / scale
    i = int(np.argmax(err))
    assert err[i] <= 1e-12, (
        f"E_{{2,{b}}}({z[i]!r}) = {got[i]!r}, mpmath {ref[i]!r}")


def _ml_alpha_one_mp(b: float, z: float) -> float:
    """E_{1,b}(z) = sum_k z^k / Gamma(k + b) by mpmath.  On the negative
    axis the largest term is near e^|z| and the sum near e^-|z|, so the
    digits carry the 0.87 |z| that cancel."""
    with mp.workdps(int(abs(z)) + 40):
        b, z = mp.mpf(b), mp.mpf(z)
        k, total = 0, mp.mpf(0)
        while k + b <= 1.0:
            total += z ** k * mp.rgamma(k + b)
            k += 1
        term = z ** k * mp.rgamma(k + b)
        while k < abs(z) or abs(term) > abs(total) * mp.mpf(10) ** -30:
            total += term
            term = term * z / (k + b)
            k += 1
        return float(total)


@pytest.mark.parametrize("m", range(4))
def test_alpha_one_non_positive_integer_beta(m):
    """E_{1,-m}(z) = z^{m+1} e^z within 1e-12 of mpmath on z in
    [-700, 30]; the beta recurrence raised NumericError below z = -40."""
    z = np.concatenate([np.linspace(-700.0, 30.0, 12), [-45.0, -40.5, -0.5]])
    got = mittag_leffler(MLParams(1.0, -float(m)), z)
    ref = np.array([_ml_alpha_one_mp(-m, zi) for zi in z])
    err = np.abs(got - ref) / np.abs(ref)
    i = int(np.argmax(err))
    assert err[i] <= 1e-12, (
        f"E_{{1,{-m}}}({z[i]!r}) = {got[i]!r}, mpmath {ref[i]!r}")


@pytest.mark.parametrize("b", range(1, 10))
def test_alpha_two_integer_beta_positive_axis(b):
    """E_{2,b} at integer b on the positive axis past the closed forms'
    range: within 1e-12 of mpmath where E fits in float64 and inf where
    it does not.  Clipping sqrt(z) at 710 gave finite wrong values
    (E_{2,1}(6e5) = 1.1e308, E_{2,6}(1e300) < 0), and 5.1e5 has finite
    values for b >= 2 whose e^sqrt(z) alone overflows."""
    zs = [4e5, 5.1e5, 6e5, 1e6, 1e300]
    got = mittag_leffler(MLParams(2.0, float(b)), np.array(zs))
    top = mp.mpf(np.finfo(float).max)
    with mp.workdps(40):
        rg = [None] + [1 / mp.gamma(m) for m in range(1, b)]
        for z, g in zip(zs, got):
            zm = mp.mpf(z)
            x = mp.sqrt(zm)
            m, ref = (1, mp.cosh(x)) if b % 2 else (2, mp.sinh(x) / x)
            while m < b:
                ref = (ref - rg[m]) / zm
                m += 2
            if ref > top:
                assert g == math.inf, f"E_{{2,{b}}}({z}) = {g!r}, mpmath {ref}"
            else:
                assert abs(g - float(ref)) <= 1e-12 * float(ref), (
                    f"E_{{2,{b}}}({z}) = {g!r}, mpmath {ref}")


# ---------------------------------------------------------------------------
# ascending series: planned term counts, Sum2 in tiles, exact Gamma arguments


def _assert_rel_taylor(a, b, z, got, rtol=1e-12):
    ref = np.array([float(_taylor(a, b, float(x))) for x in z])
    rel = np.abs(got - ref) / np.abs(ref)
    i = int(np.argmax(rel))
    assert rel[i] <= rtol, (
        f"E_{{{a},{b}}}({z[i]!r}) = {got[i]!r}, mpmath {ref[i]!r}, "
        f"rel {rel[i]:.2e}; {np.count_nonzero(rel > rtol)} points above")


@pytest.mark.parametrize("a,b", [(2.0, 9.0 + 1e-9), (2.0, 8.9), (1.99, 9.0),
                                 (1.9, 9.0)])
def test_large_beta_near_alpha_two(a, b):
    """The series gate takes the real largest term.  With the hump index
    at 0 it is 1/Gamma(b), 2.5e-5 at b = 9; a gate that took 1 there
    sent points without cancellation to the contour, which missed 1e-12
    at up to 20 of these 80 points per pair."""
    rng = np.random.default_rng(53)
    z = -np.exp(rng.uniform(np.log(10.0), np.log(200.0), 80))
    _assert_rel_taylor(a, b, z, mittag_leffler(MLParams(a, b), z))


def test_beta_past_the_range_of_gamma():
    """At beta = 200 every term z^n / Gamma(200 + n/2) is below the
    smallest float64, so the first term the series plan takes is n = 0;
    a plan that looked for it as the first n with 1/Gamma(b + a n) != 0
    never ended there.  The values are the float64 zeros they round to,
    and a pole of Gamma at beta = -3 is still stepped over."""
    z = np.array([-1.0, -3.0, 2.0])
    assert np.array_equal(mittag_leffler(MLParams(0.5, 200.0), z),
                          np.zeros(3))
    want = [float(mp.mpf(0.5) ** n * mp.rgamma(-3 + 0.5 * n) * (-1) ** n)
            for n in range(1, 80)]
    assert_allclose(mittag_leffler(MLParams(0.5, -3.0), -0.5),
                    math.fsum(want), rtol=1e-12)


def test_exact_gamma_argument_at_beta_nine():
    """At (1.35, 9) a term 1/Gamma(b + a n) taken at the rounded b + a n
    is off by up to 190 ulp, which x psi(x) amplifies from the rounding;
    the series accepted E_{1.35,9}(-59.4334) at 2.0e-12 so."""
    rng = np.random.default_rng(59)
    z = -np.exp(rng.uniform(np.log(10.0), np.log(200.0), 80))
    z = np.concatenate([z, [-59.4334, -57.2218]])
    _assert_rel_taylor(1.35, 9.0, z, mittag_leffler(MLParams(1.35, 9.0), z))


# the (alpha, beta) pairs of the solver's kernels at the README operator
_SOLVER_PAIRS = [(0.7, 1.0), (0.7, 0.7), (1.35, 1.35), (1.35, 0.6),
                 (1.35, 1.6), (1.35, 2.0), (1.35, 2.75), (1.35, 3.75)]


@pytest.mark.parametrize("a,b", _SOLVER_PAIRS)
def test_series_accepted_points_match_taylor(a, b):
    """Every point the series accepts is within 1e-12 of mpmath."""
    rng = np.random.default_rng(61)
    z = -np.exp(rng.uniform(np.log(1e-3), np.log(15.0), 60))
    safe, count = specfun._series_plan(a, b, z)
    val, ok = specfun._series_block(a, b, z[safe], count[safe])
    assert np.count_nonzero(ok) >= 20
    _assert_rel_taylor(a, b, z[safe][ok], val[ok])


@pytest.mark.parametrize("a,b", _SOLVER_PAIRS + [
    (0.3, 1.0), (0.04, 3.6), (0.05, 0.2), (1.35, 9.0), (2.0, 9.0),
    (1.5, -0.5), (0.8, 0.0), (0.3, -1.4)])
def test_series_count_is_never_short(a, b):
    """The term after each planned point's count is at most eps/4 of its
    largest term, on both half-axes; logs of the terms from lgamma."""
    rng = np.random.default_rng(67)
    z = np.concatenate([-np.exp(rng.uniform(np.log(1e-6), np.log(300.0), 150)),
                        np.exp(rng.uniform(np.log(1e-6), np.log(50.0), 50))])
    safe, count = specfun._series_plan(a, b, z)
    assert np.count_nonzero(safe) >= 100
    floor = math.log(specfun._EPS / 4.0)
    for zz, n_last in zip(z[safe], count[safe]):
        lnx = math.log(abs(zz))
        ln_terms = [n * lnx - math.lgamma(b + a * n)
                    if (b + a * n > 0.0 or b + a * n != round(b + a * n))
                    else -math.inf for n in range(n_last + 2)]
        assert ln_terms[-1] <= max(ln_terms[:-1]) + floor, (
            f"E_{{{a},{b}}}({zz!r}): count {n_last} is short")


@pytest.mark.parametrize("a,b", [(0.7, 1.0), (1.35, 1.35), (0.3, 1.0),
                                 (1.35, 9.0)])
def test_values_do_not_depend_on_tiles(a, b):
    """Seeded points over the series and asymptotic regimes give the same
    bits alone, in batches of 3, 64, 700 and 5000 (tiles of 64 terms
    down to one) and shuffled."""
    rng = np.random.default_rng(71)
    z = -np.exp(rng.uniform(np.log(1e-3), np.log(1e7), 5000))
    p = MLParams(a, b)
    whole = mittag_leffler(p, z)
    perm = rng.permutation(z.size)
    assert np.array_equal(mittag_leffler(p, z[perm]), whole[perm])
    for size in (3, 64, 700):
        parts = [mittag_leffler(p, z[lo:min(lo + size, 700)])
                 for lo in range(0, 700, size)]
        assert np.array_equal(np.concatenate(parts), whole[:700])
    pick = rng.choice(z.size, 60, replace=False)
    alone = np.array([mittag_leffler(p, z[i]) for i in pick])
    assert np.array_equal(alone, whole[pick])


@pytest.mark.parametrize("counts", [[65, 65, 50], [65, 65, 65, 40],
                                    [66, 66, 66, 40], [67, 67, 67, 67, 30],
                                    [130, 130, 100, 70, 20]])
def test_series_block_after_a_tile(counts):
    """A tile that stops some points, then one-term steps for the rest
    (fewer terms left than points): every point's value and flag are
    those of a call with that point alone."""
    a, b = 0.7, 1.0
    z = -np.linspace(0.3, 0.9, len(counts))
    count = np.array(counts, dtype=np.int64)
    val, ok = specfun._series_block(a, b, z, count)
    for i in range(z.size):
        one = specfun._series_block(a, b, z[i:i + 1], count[i:i + 1])
        assert np.array_equal(val[i:i + 1], one[0])
        assert np.array_equal(ok[i:i + 1], one[1])


# ---------------------------------------------------------------------------
# asymptotic block: live-point passes with an exact early exit against the
# masked loop that runs every point to its envelope minimum


def _asymp_block_loop(a, b, z, nmax=160):
    """Reference: every pass over the whole batch, masked by np.where,
    until the last point's envelope stops falling."""
    from scipy import special as sp
    with np.errstate(divide="ignore"):
        zi = 1.0 / z
    azi = np.abs(zi)
    p = np.ones_like(z)
    ap = np.ones_like(z)
    s = np.zeros_like(z)
    minenv = np.full(z.shape, np.inf)
    live = np.abs(z) > 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nmax + 1):
            x = b - a * n
            if x >= 0.5:
                renv = abs(float(sp.rgamma(x)))
            else:
                renv = float(np.exp(sp.gammaln(1.0 - x))) / math.pi
            p = np.where(live, p * zi, p)
            ap = np.where(live, ap * azi, ap)
            env = ap * renv
            live &= ~(live & (env >= minenv))
            s = np.where(live, s + p * sp.rgamma(x), s)
            minenv = np.where(live, np.minimum(minenv, env), minenv)
            if not live.any():
                break
    err = np.where(np.isfinite(minenv), minenv, np.inf)
    total = specfun._ml_residue(a, b, z) - s
    with np.errstate(invalid="ignore"):
        ok = err <= specfun._RTOL * np.maximum(np.abs(total), 1e-300)
    ok |= ~np.isfinite(total) & (z > 0.0)
    return total, ok


@pytest.mark.parametrize("a", [0.5, 0.7, 1.0, 1.35, 1.9, 2.0])
def test_asymp_block_matches_loop(a):
    """Value and accept flag are the very bits of the masked loop, on
    both half-axes over |z| in [1.01, 1e9], in batches and alone."""
    rng = np.random.default_rng(23)
    for b in (0.6, 1.0, a, 1.6, 2.7, 3.75):
        mag = np.exp(rng.uniform(np.log(1.01), np.log(1e9), 2000))
        for z in (-mag, mag, np.concatenate([-mag[:500], mag[500:1000]])):
            got = specfun._asymp_block(a, b, z)
            want = _asymp_block_loop(a, b, z)
            assert np.array_equal(got[0], want[0], equal_nan=True)
            assert np.array_equal(got[1], want[1])
        for zz in (-mag[:4]).tolist() + mag[:4].tolist() + [-1.01, 1e9]:
            got = specfun._asymp_block(a, b, np.array([zz]))
            want = _asymp_block_loop(a, b, np.array([zz]))
            assert np.array_equal(got[0], want[0], equal_nan=True)
            assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("a,b", [(1.9, 0.6), (2.0, 0.6), (2.0, 2.7)])
def test_asymp_block_matches_loop_next_to_zeros(a, b):
    """Next to a zero of E the residues and the sum nearly cancel, so a
    point whose sum has stopped moving may still fail its error test;
    it must run on, as the loop does, and keep the loop's flag."""
    z = -np.linspace(2000.0, 3000.0, 20001)
    v = _asymp_block_loop(a, b, z)[0]
    i = np.flatnonzero(np.sign(v[1:]) != np.sign(v[:-1]))[:8]
    lo, hi = z[i], z[i + 1]
    sign_lo = np.sign(v[i])
    for _ in range(60):  # bisect every zero at once
        mid = 0.5 * (lo + hi)
        left = np.sign(_asymp_block_loop(a, b, mid)[0]) == sign_lo
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    steps = 1.0 + np.arange(-40, 41)[:, None] * 1e-15
    zz = (lo * steps).ravel()
    got = specfun._asymp_block(a, b, zz)
    want = _asymp_block_loop(a, b, zz)
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("a,b", [(0.7, 1.0), (0.7, 0.7), (1.35, 1.35),
                                 (1.35, 0.6), (1.5, 2.95)])
def test_asymp_values_match_loop(a, b, monkeypatch):
    """mittag_leffler returns the same bits with the masked loop in place
    of the live-point block, across every regime it hands over."""
    rng = np.random.default_rng(29)
    z = -np.exp(rng.uniform(np.log(1e-2), np.log(1e8), 4000))
    p = MLParams(a, b)
    got = mittag_leffler(p, z)
    monkeypatch.setattr(specfun, "_asymp_block", _asymp_block_loop)
    assert np.array_equal(got, mittag_leffler(p, z))


# ---------------------------------------------------------------------------
# asymptotic prediction: the points refused before any tile are points the
# block itself rejects


def _ml_pairs():
    """ML_PAIRS of bench/workloads.py, the solver's (alpha, beta) pairs
    at the README operator, read from its source: running the module
    would write its bytecode under bench/."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "ML_PAIRS"):
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError("ML_PAIRS not found in bench/workloads.py")


_HOPE_PAIRS = sorted(set(_ml_pairs())
                     | {(a, b) for a, b, _z, _r in ML_REFERENCE})


def test_asymp_filter_keeps_every_accept():
    """For every pair of the benchmark's ML_PAIRS and of the frozen
    mpmath table, on seeded |z| from 1 to 1e7 on both axes: every point
    the block accepts is kept by _asymp_hopeful, the kept points alone
    give the same bits, and the filter refuses most of the negative-axis
    points the block rejects."""
    rng = np.random.default_rng(79)
    refused = rejected = 0
    for a, b in _HOPE_PAIRS:
        mag = np.exp(rng.uniform(0.0, math.log(1e7), 1500))
        z = np.concatenate([-mag, mag, [-1.0, 1.0, -1.0 - 1e-12]])
        val, ok = specfun._asymp_block(a, b, z)
        hope = specfun._asymp_hopeful(a, b, z)
        assert not np.any(ok & ~hope), (a, b, z[ok & ~hope][:4])
        kept_val, kept_ok = specfun._asymp_block(a, b, z[hope])
        assert np.array_equal(kept_ok, ok[hope])
        assert np.array_equal(kept_val[kept_ok], val[hope & ok])
        refused += np.count_nonzero(~hope)
        rejected += np.count_nonzero(~ok & (z < 0.0))
    assert refused >= 0.5 * rejected


@pytest.mark.parametrize("a,b", _ml_pairs() + [(1.35, 3.75), (1.9, 0.6),
                                                (0.3, 1.0)])
def test_asymp_filter_at_the_accept_edge(a, b, monkeypatch):
    """Where the block's accept flag flips along the negative axis, the
    accepted side, bisected to within a few ulp of the flip, is kept,
    also with the modulus past which no point is checked taken away:
    such a point may hold the error estimate within rounding of _RTOL
    |value|, so a weaker bound on the sum or the residues refuses it."""
    z = -np.geomspace(1.01, 1e4, 20000)
    ok = specfun._asymp_block(a, b, z)[1]
    i = np.flatnonzero(ok[1:] != ok[:-1])
    assert i.size
    yes, no = np.where(ok[i], z[i], z[i + 1]), np.where(ok[i], z[i + 1], z[i])
    for _ in range(60):
        mid = 0.5 * (yes + no)
        took = specfun._asymp_block(a, b, mid)[1]
        yes, no = np.where(took, mid, yes), np.where(took, no, mid)
    assert specfun._asymp_block(a, b, yes)[1].all()
    assert specfun._asymp_hopeful(a, b, yes).all()
    stops = specfun._asymp_stops
    monkeypatch.setattr(specfun, "_asymp_stops",
                        lambda a_, b_: stops(a_, b_)[:-1] + (math.inf,))
    assert specfun._asymp_hopeful(a, b, yes).all()


@pytest.mark.parametrize("a,b", _ml_pairs() + [(1.35, 3.75), (2.0, 0.6)])
def test_asymp_filter_at_stop_thresholds(a, b):
    """Points within rounding of an envelope stop threshold, where the
    float stop may fall on either term, are kept whenever the block
    accepts them."""
    stops = specfun._asymp_stops(a, b)[0][:-1]
    ln_x = stops[np.isfinite(stops) & (stops > 0.0) & (stops < 40.0)]
    off = np.array([-1e-8, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-8])
    z = -np.exp((ln_x[:, None] + off).ravel())
    z = z[z < -1.0]
    _, ok = specfun._asymp_block(a, b, z)
    assert not np.any(ok & ~specfun._asymp_hopeful(a, b, z))


@pytest.mark.parametrize("a,b", [(1.35, 1.35), (0.7, 0.7)])
def test_asymp_filter_with_a_zero_first_coefficient(a, b, monkeypatch):
    """At b = a the first coefficient 1/Gamma(b - a) is 0, so the sum is
    about env_1 / |z| too small for a bound on it that starts at env_1.
    Along the negative axis, every point the filter refuses is one the
    block rejects, all but 1% of the rejections are refused (a bound
    from env_1 keeps the 4% between its modulus cut-off and the accept
    edge at (1.35, 1.35)), and mittag_leffler keeps its bits."""
    assert specfun._asymp_coefs(a, b)[1][0] == 0.0
    z = -np.geomspace(1.01, 1e4, 20000)
    _, ok = specfun._asymp_block(a, b, z)
    hope = specfun._asymp_hopeful(a, b, z)
    assert not np.any(ok & ~hope)
    assert np.count_nonzero(~ok & hope) <= 0.01 * np.count_nonzero(~ok)
    p = MLParams(a, b)
    got = mittag_leffler(p, z)
    monkeypatch.setattr(specfun, "_asymp_hopeful",
                        lambda a_, b_, zz: np.ones(zz.shape, dtype=bool))
    assert np.array_equal(got, mittag_leffler(p, z))


@pytest.mark.parametrize("a,b", [(0.7, 0.7), (1.35, 1.35), (1.35, 3.75)])
def test_asymp_filter_keeps_values(a, b, monkeypatch):
    """mittag_leffler returns the same bits with every point sent to the
    asymptotic block, over every regime of the negative axis."""
    rng = np.random.default_rng(83)
    z = -np.exp(rng.uniform(np.log(1e-2), np.log(1e7), 4000))
    p = MLParams(a, b)
    got = mittag_leffler(p, z)
    monkeypatch.setattr(specfun, "_asymp_hopeful",
                        lambda a_, b_, zz: np.ones(zz.shape, dtype=bool))
    assert np.array_equal(got, mittag_leffler(p, z))


# ---------------------------------------------------------------------------
# pointwise values: a batch returns the bits of one-point calls


def _regime_mix(rng, band_lo, band_hi, sign=-1.0):
    """Seeded arguments over every regime on both half-axes, with 60
    extra points in the band [band_lo, band_hi] of |z| on the side
    ``sign``, shuffled."""
    z = np.concatenate([
        -np.exp(rng.uniform(np.log(1e-3), np.log(1e7), 120)),
        np.exp(rng.uniform(np.log(1e-2), np.log(30.0), 40)),
        sign * np.exp(rng.uniform(np.log(band_lo), np.log(band_hi), 60)),
        [0.0, -1.0, 1.0],
    ])
    return rng.permutation(z)


@pytest.mark.parametrize("a,b,lo,hi,sign", [
    (0.3, 1.0, 0.5, 2.0, -1.0),       # series at small alpha, |z| ~ 1
    (0.04, 3.6, 0.5, 1.2, -1.0),      # long series, then contour
    (1.35, 1.0, 2.0, 3.0, -1.0),      # contour with residues, arc below 1
    (1.9, 0.6, 0.9, 100.0, -1.0),     # the same, alpha near 2
    (0.7, 1.0, 3.0, 60.0, -1.0),      # contour, alpha < 1
    (0.7, 0.7, 1e3, 1e7, -1.0),       # asymptotic
    (0.3, 1.0, 0.95, 2.05, 1.0),      # forced series on the positive axis
    (1.0, 0.5, 30.0, 60.0, -1.0),     # alpha = 1, both sides of z = -40
    (2.0, 3.0, 0.3, 0.7, -1.0),       # alpha = 2, integer beta, |z| ~ 0.5
])
def test_values_are_pointwise(a, b, lo, hi, sign):
    """Each value of a shuffled batch mixing every regime is the very
    bits of its own one-point call."""
    rng = np.random.default_rng(41)
    z = _regime_mix(rng, lo, hi, sign)
    p = MLParams(a, b)
    with np.errstate(over="ignore"):
        got = mittag_leffler(p, z)
        want = np.array([mittag_leffler(p, zz) for zz in z])
    assert np.array_equal(got, want)


def test_values_are_pointwise_across_chunks():
    """A batch of more than one 4096-point chunk: a seeded subsample,
    the points on either side of the chunk boundary among them, equals
    its one-point calls, and the shuffled batch gives the same bits."""
    rng = np.random.default_rng(43)
    z = np.concatenate([_regime_mix(rng, 2.0, 100.0) for _ in range(24)])
    z = np.unique(z)
    assert z.size > 4096
    p = MLParams(1.35, 1.0)
    got = mittag_leffler(p, z)
    perm = rng.permutation(z.size)
    assert np.array_equal(mittag_leffler(p, z[perm]), got[perm])
    pick = np.concatenate([rng.choice(z.size, 150, replace=False),
                           [4094, 4095, 4096, 4097, z.size - 1]])
    want = np.array([mittag_leffler(p, z[i]) for i in pick])
    assert np.array_equal(got[pick], want)


@pytest.mark.parametrize("a,b", [(0.7, 0.7), (1.35, 1.0)])
def test_values_keep_their_bits_in_any_order_and_chunk(a, b):
    """A batch of more than three chunks of every regime, with repeated
    arguments: each value is the same bits shuffled, sorted, in its
    chunk's neighbours' company or alone, the points on either side of
    every chunk edge of the sorted order among the single calls; a 2-D
    batch keeps its shape and bits, empty batches keep their shape, and
    a 0-d argument gives a float."""
    rng = np.random.default_rng(97)
    chunk = specfun._CHUNK
    z = np.concatenate([
        -np.exp(rng.uniform(np.log(1e-3), np.log(1e7), 3 * chunk)),
        np.exp(rng.uniform(np.log(1e-2), np.log(30.0), 2000)),
        [0.0, -1.0, 1.0]])
    z = rng.permutation(np.concatenate([z, rng.choice(z, 3000)]))
    assert z.size > 3 * chunk
    p = MLParams(a, b)
    with np.errstate(over="ignore"):
        got = mittag_leffler(p, z)
        perm = rng.permutation(z.size)
        assert np.array_equal(mittag_leffler(p, z[perm]), got[perm])
        order = np.argsort(z)
        assert np.array_equal(mittag_leffler(p, z[order]), got[order])
        _, first, inv = np.unique(z, return_index=True, return_inverse=True)
        assert np.array_equal(got, got[first][inv])
        edges = order[[i + d for i in range(chunk, z.size, chunk)
                       for d in (-1, 0)]]
        pick = np.concatenate([rng.choice(z.size, 60, replace=False), edges])
        want = np.array([mittag_leffler(p, z[i]) for i in pick])
        assert np.array_equal(got[pick], want)
        grid = mittag_leffler(p, z[:600].reshape(20, 30))
    assert grid.shape == (20, 30)
    assert np.array_equal(grid.ravel(), got[:600])
    for empty in ([], np.empty((0, 3))):
        assert mittag_leffler(p, empty).shape == np.shape(empty)
    for scalar in (z[0], np.float64(z[0]), np.array(z[0])):
        one = mittag_leffler(p, scalar)
        assert type(one) is float and one == got[0]


def _contour_block_expr(a, b, z):
    """Reference: _contour_block with each 512-point block summed from
    one expression, which makes its (points x nodes) temporaries anew."""
    residues = math.pi / a <= 0.75 * math.pi
    eps = np.ones_like(z)
    if residues:
        _, e = np.frexp(0.5 * (-z) ** (1.0 / a))
        eps = np.minimum(np.ldexp(1.0, e - 1), 1.0)
    out = np.empty_like(z)
    for rung in np.unique(eps):
        idx = np.flatnonzero(eps == rung)
        p, q, bre, bim2 = specfun._contour_rule(a, b, float(rung), residues)
        for lo in range(0, idx.size, 512):
            sel = idx[lo:lo + 512]
            zc = z[sel][:, None]
            d = bre - zc
            out[sel] = ((p - q * zc) / (d * d + bim2)).sum(axis=1)
    if residues:
        out += specfun._ml_residue(a, b, z)
    return out


@pytest.mark.parametrize("a,b,lo,hi", [(0.7, 0.7, 3.6, 9.5),
                                       (0.7, 1.0, 0.5, 60.0),
                                       (1.35, 1.35, 9.0, 90.0),
                                       (1.35, 0.6, 0.9, 90.0),
                                       (1.9, 1.2, 0.9, 100.0)])
@pytest.mark.parametrize("rows", [1, 3, None])
def test_contour_blocks_keep_the_bits(a, b, lo, hi, rows, monkeypatch):
    """The in-place blocks give the bits of the one-expression sum with
    the cell budget set to 1 row, 3 rows and all rows per block (arc
    radii below 1 included for alpha >= 4/3)."""
    rng = np.random.default_rng(89)
    z = -np.exp(rng.uniform(math.log(lo), math.log(hi), 700))
    nodes = [specfun._contour_rule(a, b, eps, a >= 4.0 / 3.0)[0].size
             for eps in (0.25, 0.5, 1.0)]
    # every rule's node count n then gives cells // n == rows
    assert 3 * max(nodes) < 4 * min(nodes)
    cells = {1: 1, 3: 3 * max(nodes), None: 1 << 40}[rows]
    monkeypatch.setattr(specfun, "_CONTOUR_CELLS", cells)
    assert np.array_equal(specfun._contour_block(a, b, z),
                          _contour_block_expr(a, b, z))


@pytest.mark.parametrize("a,lo,hi", [(1.35, 9.0, 90.0), (0.7, 3.6, 9.5)])
def test_contour_call_memory(a, lo, hi, monkeypatch):
    """One 4096-point call served wholly by the contour keeps its traced
    peak under 10 MiB: the (points x rule nodes) temporaries are built
    for one block of rows at a time, not for the whole chunk."""
    rng = np.random.default_rng(47)
    z = -np.exp(rng.uniform(math.log(lo), math.log(hi), 4096))
    served = []
    contour = specfun._contour_block

    def counted(a_, b_, zz):
        served.append(zz.size)
        return contour(a_, b_, zz)

    monkeypatch.setattr(specfun, "_contour_block", counted)
    tracemalloc.start()
    try:
        mittag_leffler(MLParams(a, 1.0), z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(served) == z.size
    assert peak < 10 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
