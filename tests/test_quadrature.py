"""Quadrature layer: weight-class exactness and rule invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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
    assert_allclose(rule.integrate(poly), exact, rtol=1e-13)


def test_legendre_not_exact_beyond_degree():
    rule = gauss_legendre_rule(2)
    got = rule.integrate(lambda x: x ** 4)
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
            QuadratureRule(kind="x", nodes=np.array([0.0, 0.5]),
                           weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            QuadratureRule(kind="x", nodes=np.array([0.5]),
                           weights=np.array([-0.2]))
        with pytest.raises(ValueError):
            QuadratureRule(kind="x", nodes=np.array([0.3, 0.6]),
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
    rl = gauss_legendre_rule(20)
    rj = gauss_jacobi_rule(20, 0.0, 0.0)
    assert np.array_equal(rl.nodes, rj.nodes)
    assert np.array_equal(rl.weights, rj.weights)
    assert rl.kind == "gauss_legendre" and rj.kind == "gauss_jacobi"


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
