"""The numpy ports in fracbessel._special against scipy.special, which
the package no longer imports, and against mpmath where scipy itself
is the less accurate of the two.

Each port is held to a few ulp of scipy: relative error, or absolute
error against the function's scale where it has zeros (the Bessel
functions, ln Gamma near 1 and 2, psi near its roots and poles).
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from fracbessel import _special
from fracbessel.quadrature import gauss_jacobi_rule

EPS = float(np.finfo(float).eps)
RNG = np.random.default_rng(20261019)


def _ref(f, *args):
    """f(*args) at 40 digits, rounded to float."""
    with mp.workdps(40):
        return float(f(*args))


def _bessel_args():
    return np.concatenate([[0.0, 1e-300, 1e-5, 5.0, np.nextafter(5.0, 6.0)],
                           np.geomspace(1e-8, 1e4, 2000),
                           RNG.uniform(0.0, 10.0, 20000),
                           RNG.uniform(0.0, 1e4, 20000)])


def _scale(x):
    """The size of J_n near x: 1 up to x = 1, sqrt(2 / (pi x)) beyond."""
    return np.sqrt(2.0 / (math.pi * np.maximum(x, 2.0 / math.pi)))


class TestBessel:
    @pytest.mark.parametrize("name", ["j0", "j1"])
    def test_j0_j1_match_scipy(self, name):
        x = _bessel_args()
        got, want = getattr(_special, name)(x), getattr(sp, name)(x)
        err = np.abs(got - want)
        assert np.all(err <= 4.0 * EPS * np.maximum(np.abs(want), _scale(x)))

    def test_j1_is_odd(self):
        x = RNG.uniform(0.0, 50.0, 100)
        assert np.array_equal(_special.j1(-x), -_special.j1(x))
        assert np.array_equal(_special.j0(-x), _special.j0(x))

    def test_scalars_and_shapes(self):
        assert _special.j0(0.0) == 1.0 and _special.j1(0.0) == 0.0
        assert _special.j0(np.zeros((2, 3))).shape == (2, 3)

    def test_j0_integral_against_mpmath(self):
        """int_0^y J0 on [0, 3500], across its power series (y <= 2), its
        Neumann series (y < 40) and its asymptotic expansion, against
        Struve's form y J0 + (pi y / 2)(J1 H0 - J0 H1) (A&S 11.1.7)."""
        y = np.concatenate([[0.0, 1e-300, 1e-8, 2.0, np.nextafter(2.0, 3.0),
                             np.nextafter(40.0, 0.0), 40.0, 3500.0],
                            RNG.uniform(0.0, 60.0, 150),
                            np.geomspace(60.0, 3500.0, 50)])

        def struve_form(v):
            v = mp.mpf(v)
            j0, j1 = mp.besselj(0, v), mp.besselj(1, v)
            return v * j0 + mp.pi * v / 2 * (j1 * mp.struveh(0, v)
                                             - j0 * mp.struveh(1, v))

        want = np.array([_ref(struve_form, v) for v in y])
        err = np.abs(_special.j0_integral(y) - want)
        assert np.all(err <= 8.0 * EPS * np.abs(want))

    def test_zeros_match_scipy_at_n_1000(self):
        got, want = _special.j0_zeros(1000), sp.jn_zeros(0, 1000)
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))
        # |J0| near a zero z is |J1(z)| ~ scale times the distance
        assert np.all(np.abs(_special.j0(got))
                      <= (4.0 * EPS + np.spacing(got)) * _scale(got))


def _gamma_args():
    ints = np.arange(-60.0, 61.0)
    return np.concatenate([ints, ints + 0.5, ints + 1e-9, ints - 1e-9,
                           [-0.0, 1e-300, 1e-9, 171.5, 180.0, 1e3, 1e5,
                            1e9],
                           RNG.uniform(-170.0, 170.0, 20000),
                           RNG.uniform(0.0, 3.0, 5000),
                           np.geomspace(13.0, 1e9, 2000)])


def _match(got, want, tol):
    """Equal where both are inf or nan, within tol elsewhere."""
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        return same | (np.abs(got - want) <= tol)


class TestGammaFamily:
    def test_rgamma(self):
        x = _gamma_args()
        got, want = _special.rgamma(x), sp.rgamma(x)
        assert np.all(_match(got, want, 8.0 * EPS * np.abs(want)))
        poles = np.arange(0.0, -200.0, -1.0)
        assert np.all(_special.rgamma(poles) == 0.0)
        assert _special.rgamma(1e9) == 0.0

    def test_gamma(self):
        x = _gamma_args()
        x = x[np.abs(x) < 171.0]
        got, want = _special.gamma(x), sp.gamma(x)
        finite = np.isfinite(want)
        assert np.all(_match(got[finite], want[finite],
                             8.0 * EPS * np.abs(want[finite])))
        assert np.all(np.isinf(_special.gamma(np.array([0.0, -3.0, -40.0]))))

    def test_gammaln(self):
        """Relative error, or absolute near the zeros at 1 and 2."""
        x = _gamma_args()
        got, want = _special.gammaln(x), sp.gammaln(x)
        assert np.all(_match(got, want,
                             16.0 * EPS * np.maximum(np.abs(want), 1.0)))
        assert np.all(_special.gammaln(np.array([0.0, -1.0, -50.0]))
                      == np.inf)

    def test_psi(self):
        """Relative error on the positive axis, or absolute near the
        root at 1.46; below 0 the reflection's cot(pi x) carries the
        rounding of its argument, so the bound grows with it."""
        x = _gamma_args()
        got, want = _special.psi(x), sp.psi(x)
        pos = x > 0.0
        assert np.all(_match(got[pos], want[pos], 4.0 * EPS
                             * np.maximum(np.abs(want[pos]), 1.0)))
        neg = ~pos & (x != np.floor(x))
        cond = np.abs(x[neg]) * math.pi ** 2 / np.sin(math.pi * x[neg]) ** 2
        assert np.all(_match(got[neg], want[neg], 8.0 * EPS
                             * (np.abs(want[neg]) + cond + 1.0)))
        assert np.all(np.isnan(_special.psi(np.array([-1.0, -7.0]))))
        assert _special.psi(0.0) == -np.inf

    @pytest.mark.parametrize("x", [-0.5040830082644554, -2.3, -33.7])
    def test_psi_reflection_against_mpmath(self, x):
        want = _ref(mp.digamma, x)
        assert abs(_special.psi(x) - want) <= 1e-14 * max(abs(want), 1.0)


# The (n, a, b) of the Gauss-Jacobi rules the package builds: the
# oracle rules of the README operator, the hinge and contour rules.
RULES = [(64, -0.6, -0.4), (160, -0.6, -0.4), (112, -0.6, -0.4),
         (192, 0.7, -0.7), (160, -0.75, -0.65), (16, 0.0, -0.3),
         (40, -0.5, -0.5), (24, 0.3, 0.0)]


class TestJacobi:
    @pytest.mark.parametrize("n,a,b", RULES)
    def test_polynomials_on_the_rules(self, n, a, b):
        """P_n and P_{n-1} with the (al, be) = (b, a) of the rule and
        P_{n-1} with (al + 1, be + 1), at the rule's nodes: the
        recurrence within a few ulp of the largest value over the nodes,
        and the factor binom(deg + al, deg) that scales it within a few
        ulp of mpmath.  scipy takes that factor from logs of Gamma past
        deg + al = 170, to about 1e-13."""
        x = 2.0 * gauss_jacobi_rule(n, a, b).nodes - 1.0
        for deg, al, be in ((n, b, a), (n - 1, b, a), (n - 1, b + 1, a + 1)):
            got = _special.eval_jacobi(deg, al, be, x)
            want = sp.eval_jacobi(deg, al, be, x)
            c = float(_special._binom(deg, al))
            c_ref = _ref(lambda: mp.binomial(deg + mp.mpf(al), deg))
            assert math.isclose(c, c_ref, rel_tol=64 * EPS)
            assert math.isclose(c, sp.binom(deg + al, deg), rel_tol=1e-12)
            want = want / sp.binom(deg + al, deg)
            assert np.all(np.abs(got / c - want)
                          <= 64.0 * EPS * np.max(np.abs(want)))

    def test_low_degrees(self):
        x = np.linspace(-1.0, 1.0, 9)
        for deg in range(4):
            assert np.allclose(_special.eval_jacobi(deg, 0.3, -0.2, x),
                               sp.eval_jacobi(deg, 0.3, -0.2, x),
                               rtol=16 * EPS, atol=16 * EPS)

    @pytest.mark.parametrize("n,a,b", RULES)
    def test_beta_on_the_rules(self, n, a, b):
        assert math.isclose(_special.beta(b + 1.0, a + 1.0),
                            sp.beta(b + 1.0, a + 1.0), rel_tol=8 * EPS)

    def test_beta(self):
        for a, b in RNG.uniform(0.05, 40.0, (200, 2)):
            assert math.isclose(_special.beta(a, b), sp.beta(a, b),
                                rel_tol=16 * EPS)
        assert math.isclose(_special.beta(300.5, 2.0), sp.beta(300.5, 2.0),
                            rel_tol=1e-12)


class TestHyp1f1:
    @pytest.mark.parametrize("b", [0.26, 0.5, 0.9, 1.0, 1.25, 2.7])
    def test_matches_scipy(self, b):
        """scipy's own value is off by up to 9e-14 near z = -40."""
        z = np.concatenate([np.linspace(-40.0, 700.0, 1501),
                            -np.geomspace(1e-12, 40.0, 100),
                            np.geomspace(1e-12, 700.0, 100), [0.0]])
        got, want = _special.hyp1f1_one(b, z), sp.hyp1f1(1.0, b, z)
        assert np.all(np.abs(got - want) <= 2e-13 * np.abs(want))

    @pytest.mark.parametrize("b,z", [(0.9, -39.26), (0.26, -37.5),
                                     (30.0, 78.69), (1.25, 650.0),
                                     (0.5, -1e-3), (2.7, 3.0)])
    def test_against_mpmath(self, b, z):
        want = _ref(mp.hyp1f1, 1, b, z)
        assert math.isclose(float(_special.hyp1f1_one(b, z)), want,
                            rel_tol=1e-14)
