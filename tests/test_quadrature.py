"""Quadrature layer: weight-class exactness and rule invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

from fracbessel.quadrature import (QuadratureRule, gauss_jacobi_rule,
                                   gauss_legendre_rule)
from fracbessel.specfun import gamma


def beta_moment(a, b, m):
    """Exact integral_0^1 x^(a+m) (1-x)^b dx."""
    return gamma(a + m + 1.0) * gamma(b + 1.0) / gamma(a + b + m + 2.0)


@pytest.mark.parametrize("a,b", [
    (0.0, 0.0), (-0.5, 0.0), (0.3, -0.3), (-0.3, -0.65),
    (1.35, 0.0), (-0.6, 0.35), (2.0, 3.0),
])
def test_jacobi_weight_class_monomials_exact(a, b):
    """x^a (1-x)^b times monomials up to the rule degree, to 1e-12."""
    for n in (4, 16, 48):
        rule = gauss_jacobi_rule(n, a, b)
        for m in range(0, min(2 * n - 1, 12)):
            got = float(rule.weights @ rule.nodes ** m)
            assert_allclose(got, beta_moment(a, b, m), rtol=1e-12,
                            err_msg=f"n={n} moment {m}")


def test_legendre_polynomial_exactness():
    rule = gauss_legendre_rule(6)
    # degree 11 is the highest exact one for 6 nodes
    coeffs = np.arange(1.0, 13.0)

    def poly(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    exact = sum(c / (k + 1.0) for k, c in enumerate(coeffs))
    assert_allclose(rule.weights @ poly(rule.nodes), exact, rtol=1e-13)


def test_legendre_not_exact_beyond_degree():
    rule = gauss_legendre_rule(2)
    got = rule.weights @ rule.nodes ** 4
    assert abs(got - 0.2) > 1e-6


class TestRuleValidation:
    def test_node_count(self):
        gauss_jacobi_rule(1, 0.0, 0.0)  # a cached neighbour changes nothing
        with pytest.raises(ValueError):
            gauss_jacobi_rule(0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gauss_legendre_rule(0)

    @pytest.mark.parametrize("a,b", [(-1.0, 0.0), (0.0, -1.5)])
    def test_exponent_range(self, a, b):
        with pytest.raises(ValueError):
            gauss_jacobi_rule(8, a, b)

    def test_dataclass_invariants(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([0.0, 0.5]),
                           weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([0.5]), weights=np.array([-0.2]))
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([0.3, 0.6]),
                           weights=np.array([0.5]))


def test_rules_are_memoized_and_frozen():
    r1 = gauss_jacobi_rule(32, -0.3, 0.35)
    r2 = gauss_jacobi_rule(32, -0.3, 0.35)
    assert r1 is r2
    assert gauss_legendre_rule(20) is gauss_legendre_rule(20)
    for rule in (r1, gauss_legendre_rule(20)):
        with pytest.raises((ValueError, RuntimeError)):
            rule.nodes[0] = 0.5
        with pytest.raises((ValueError, RuntimeError)):
            rule.weights[0] = 0.5


def test_legendre_matches_jacobi_zero_pair():
    # one shared rule object, not a copy with its own cache
    assert gauss_legendre_rule(20) is gauss_jacobi_rule(20, 0.0, 0.0)
    assert gauss_legendre_rule(20).exponent_pair == (0.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    a=st.floats(min_value=-0.9, max_value=2.0),
    b=st.floats(min_value=-0.9, max_value=2.0),
)
def test_rule_invariants_property(n, a, b):
    rule = gauss_jacobi_rule(n, a, b)
    assert rule.n == n
    assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert np.all(rule.weights > 0.0)
    # zeroth moment is the Beta function
    assert_allclose(rule.weights.sum(), beta_moment(a, b, 0), rtol=1e-11)


def scipy_rule(n, a, b):
    """scipy's Gauss-Jacobi rule carried to [0, 1] and the weight
    x^a (1-x)^b (scipy puts its alpha at X = +1, that is at x = 1)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        x, w = roots_jacobi(n, b, a)
    return (x + 1.0) / 2.0, w / 2.0 ** (a + b + 1.0)


def _seeded_pairs():
    """n = 1, a + b = 0 and a + b = -1 (where the recurrence divides by
    zero in the branches it discards), and general pairs, from a fixed
    seed."""
    rng = np.random.default_rng(909)
    cases = []
    for n, a, b in zip(rng.integers(2, 401, 12), rng.uniform(-0.9, 2.0, 12),
                       rng.uniform(-0.9, 2.0, 12)):
        cases.append((int(n), float(a), float(b)))
    for n, a in zip(rng.integers(2, 401, 6), rng.uniform(-0.9, 0.9, 6)):
        cases.append((int(n), float(a), -float(a)))
    for n, a in zip(rng.integers(2, 401, 6), rng.uniform(-0.9, -0.1, 6)):
        cases.append((int(n), float(a), -1.0 - float(a)))
    for a, b in rng.uniform(-0.9, 2.0, (4, 2)):
        cases.append((1, float(a), float(b)))
    return cases


@pytest.mark.parametrize("n,a,b", [
    (64, -0.6, -0.4), (112, -0.6, -0.4), (160, -0.6, -0.4),
    (192, 0.7, -0.7), (160, -0.75, -0.65),
] + _seeded_pairs())
def test_jacobi_matches_scipy_roots_jacobi(n, a, b):
    """The numpy port reproduces scipy's rule: the first five are the
    rules a CLI run at the README operator builds."""
    x_ref, w_ref = scipy_rule(n, a, b)
    rule = gauss_jacobi_rule(n, a, b)
    assert np.max(np.abs(rule.nodes - x_ref)) <= 1e-15
    assert np.max(np.abs(rule.weights - w_ref) / w_ref) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 7, 64, 160, 400])
@pytest.mark.parametrize("a", [0.15, 0.5, 1.35, 2.0])
def test_symmetric_jacobi_matches_scipy(n, a):
    """a = b, where scipy takes its Gegenbauer branch: nodes to 1e-15
    and weights to 1e-14 of their sum.  For a = b < 0 scipy's end
    weights are themselves off by 1.3e-8 relative (a = b = -0.95,
    n = 400, against 40-digit mpmath), so the closed-form test below
    stands in for it there."""
    x_ref, w_ref = scipy_rule(n, a, a)
    rule = gauss_jacobi_rule(n, a, a)
    assert np.max(np.abs(rule.nodes - x_ref)) <= 1e-15
    assert np.max(np.abs(rule.weights - w_ref)) <= 1e-14 * w_ref.sum()


@pytest.mark.parametrize("n", [1, 2, 7, 64, 160, 400])
def test_chebyshev_rule_closed_form(n):
    """a = b = -1/2 is Gauss-Chebyshev: x_i = (1 + cos((2i-1) pi/2n))/2
    with every weight pi/n."""
    i = np.arange(n, 0, -1)
    rule = gauss_jacobi_rule(n, -0.5, -0.5)
    nodes = (1.0 + np.cos((2 * i - 1) * np.pi / (2 * n))) / 2.0
    assert_allclose(rule.nodes, nodes, rtol=0.0, atol=1e-15)
    assert_allclose(rule.weights, np.pi / n, rtol=1e-10)
