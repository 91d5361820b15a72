"""Quadrature rules for smooth and power-weighted integrals on [0, 1].

Every convolution kernel in the package has endpoint behaviour
x^a (1-x)^b with known exponents, so the natural tool is Gauss-Jacobi:
the rule absorbs the weight and sees only the smooth factor.  The plain
Gauss-Legendre rule is its (0, 0) member.

Gauss-Jacobi nodes are the eigenvalues of the Jacobi matrix of the
three-term recurrence (Golub-Welsch), taken with numpy's symmetric
eigensolver and polished by one Newton step; the Jacobi polynomial
values come from their three-term recurrence in ``_special``.
Gauss-Legendre rules come from numpy's ``leggauss``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _special as _sp

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

    nodes: np.ndarray
    weights: np.ndarray
    exponent_pair: tuple = (0.0, 0.0)

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


def _golub_welsch(n: int, a: float, b: float):
    """Gauss nodes and weights on [0, 1] for the weight x^a (1-x)^b.

    A port of scipy's ``roots_jacobi`` (Golub-Welsch, Math. Comp. 23,
    1969) with numpy's symmetric eigensolver in place of
    ``eigvals_banded``.  The recurrence, the single Newton step and (for
    a != b) the log-normalised weight formula are scipy's, in its
    convention: the weight (1-X)^alpha (1+X)^beta on [-1, 1] with
    alpha = b and beta = a, so that X = 2x - 1 sends (1+X) -> 2x and
    (1-X) -> 2(1-x).
    """
    al, be = b, a
    k = np.arange(n, dtype=float)
    diag = np.where(
        k == 0, (be - al) / (2 + al + be),
        (be * be - al * al) / ((2.0 * k + al + be) * (2.0 * k + al + be + 2)))
    k = k[1:]
    off = (2.0 / (2.0 * k + al + be)
           * np.sqrt((k + al) * (k + be) / (2 * k + al + be + 1))
           * np.where(k == 1, 1.0,
                      np.sqrt(k * (k + al + be) / (2.0 * k + al + be - 1))))
    # eigvalsh reads the lower triangle of the symmetric Jacobi matrix
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))

    def dp(x):  # P_n'
        return (0.5 * (n + al + be + 1)
                * _sp.eval_jacobi(n - 1, al + 1, be + 1, x))

    # one Newton step on P_n, then weights 1/(P_{n-1} P_n'), each factor
    # scaled by its geometric midrange so the product neither over- nor
    # underflows.  P_n and P_n' at the eigenvalues share one recurrence
    # loop, as the rows of the families (al, be) and (al + 1, be + 1).
    prev, last = _sp.jacobi_pair(n, [[al], [al + 1.0]], [[be], [be + 1.0]], x)
    dy = 0.5 * (n + al + be + 1) * prev[1]
    x -= last[0] / dy
    if a == b:
        # scipy takes its Gegenbauer branch here.  P_{n-1} is badly
        # conditioned at the end nodes, where its last roots nearly meet
        # those of P_n (2e-8 of an end weight at a = b = -0.9, n = 400);
        # at a root of P_n it equals (1 - X^2) P_n' up to a constant
        # factor, which the normalisation below removes.
        dy = dp(x)
        fm = (1.0 - x * x) * dy
    else:
        fm = _sp.eval_jacobi(n - 1, al, be, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    mu0 = 2.0 ** (al + be + 1) * _sp.beta(al + 1, be + 1)
    w *= mu0 / w.sum()
    return (x + 1.0) / 2.0, w / 2.0 ** (a + b + 1.0)


@lru_cache(maxsize=256)
def _jacobi_rule(n: int, a: float, b: float) -> QuadratureRule:
    """Memoized rule; root finding is the expensive part and the
    panel-based callers request the same few rules constantly.  The
    node arrays are frozen so the shared rule stays safe."""
    if a == 0.0 and b == 0.0:
        x, w = leggauss(n)
        nodes = (x + 1.0) / 2.0
        weights = w / 2.0
    else:
        # np.where also evaluates the branches it discards, which divide
        # by zero at k = 0 when a + b = 0 and at k = 1 when a + b = -1
        with np.errstate(invalid="ignore", divide="ignore"):
            nodes, weights = _golub_welsch(n, a, b)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, exponent_pair=(a, b))


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


def gauss_legendre_rule(n: int) -> QuadratureRule:
    """Plain Gauss-Legendre rule on [0, 1]: the shared Gauss-Jacobi rule
    with exponent pair (0, 0)."""
    return gauss_jacobi_rule(n, 0.0, 0.0)
