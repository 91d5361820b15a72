"""Quadrature rules for smooth and power-weighted integrals on [0, 1].

Every convolution kernel in the package has endpoint behaviour
x^a (1-x)^b with known exponents, so the natural tool is Gauss-Jacobi:
the rule absorbs the weight and sees only the smooth factor.  A plain
Gauss-Legendre rule rounds out the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "gauss_legendre_rule",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrals over the reference interval [0, 1].

    A rule with ``exponent_pair = (a, b)`` approximates

        integral_0^1 x^a (1-x)^b h(x) dx  ~=  sum_i weights[i] * h(nodes[i])

    for smooth h; the singular weight is folded into the weights, so the
    caller evaluates only the smooth part at the nodes.  Rules with
    ``exponent_pair = (0, 0)`` are ordinary quadrature.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    exponent_pair: tuple = (0.0, 0.0)
    degree: int = 0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(nodes <= 0.0) or np.any(nodes >= 1.0):
            raise ValueError("nodes must lie strictly inside (0, 1)")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.nodes.size

    def integrate(self, h) -> float:
        """Apply the rule to a callable h evaluated at the nodes."""
        vals = np.asarray(h(self.nodes), dtype=float)
        return float(self.weights @ vals)


@lru_cache(maxsize=256)
def _jacobi_rule(n: int, a: float, b: float) -> QuadratureRule:
    """Memoized rule; root finding is the expensive part and the
    panel-based callers request the same few rules constantly.  The
    node arrays are frozen so the shared rule stays safe."""
    if a == 0.0 and b == 0.0:
        x, w = np.polynomial.legendre.leggauss(n)
        nodes = (x + 1.0) / 2.0
        weights = w / 2.0
    else:
        # scipy's convention weights (1-X)^alpha (1+X)^beta on [-1, 1];
        # mapping X = 2x - 1 sends (1+X) -> 2x and (1-X) -> 2(1-x).
        with np.errstate(invalid="ignore", divide="ignore"):  # benign scipy warning
            x, w = _sp.roots_jacobi(n, b, a)
        nodes = (x + 1.0) / 2.0
        weights = w / 2.0 ** (a + b + 1.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(
        kind="gauss_jacobi",
        nodes=nodes,
        weights=weights,
        exponent_pair=(a, b),
        degree=2 * n - 1,
    )


def gauss_jacobi_rule(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Jacobi rule on [0, 1] for the weight x^a (1-x)^b.

    Parameters
    ----------
    n : int
        Number of nodes; exact for smooth factors of degree <= 2n-1.
    a, b : float
        Endpoint exponents, both > -1.  ``a`` sits at x=0, ``b`` at x=1.

    Returns
    -------
    QuadratureRule
        A shared, memoized rule with read-only node and weight arrays.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if a <= -1.0 or b <= -1.0:
        raise ValueError("Jacobi exponents must exceed -1")
    return _jacobi_rule(int(n), float(a), float(b))


@lru_cache(maxsize=256)
def gauss_legendre_rule(n: int) -> QuadratureRule:
    """Plain Gauss-Legendre rule on [0, 1], shared and memoized."""
    rule = gauss_jacobi_rule(n, 0.0, 0.0)
    return QuadratureRule(
        kind="gauss_legendre",
        nodes=rule.nodes,
        weights=rule.weights,
        exponent_pair=(0.0, 0.0),
        degree=rule.degree,
    )
