"""Quadrature oracles for every fractional operator in the model problem.

These routines never touch the analytic solution formulas.  They apply
the operator *definitions* (weighted convolutions plus ordinary
derivatives) to whatever callable they are handed, which is what lets
the verification layer compare "what the formula claims" against "what
the operator actually does" without circularity.

Conventions.  The right-sided operators live on t < 0 and integrate
from t up to 0; the Erdelyi-Kober family lives on t > 0.  Every oracle
takes a float or a 1-d array of t and gives a float or one value per t.
It calls its integrand once, on the quadrature nodes and stencil points
of every t together, and sums each t on its own row, so a value never
depends on the other t of the call.  A batch integrand, one row per
node and one column per function, gives one row per t, each column
the bits of the call with that column's function alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .quadrature import gauss_jacobi_rule
from .specfun import gamma

__all__ = [
    "OperatorParams",
    "rl_integral_right",
    "ek_integral",
    "ek_derivative",
    "hyper_bessel_caputo",
    "bi_ordinal_hilfer",
]


@dataclass(frozen=True)
class OperatorParams:
    """The five primary exponents of the mixed problem.

    alpha1 in (0, 1] and a finite theta < 1 drive the hyper-Bessel side t > 0;
    alpha2, beta2 in (1, 2] and the interpolation weight mu in [0, 1]
    drive the bi-ordinal Hilfer side t < 0.  Everything else is derived:

    * p = 1 - theta, the power in the substituted time variable t^p;
    * gamma2 = beta2 + mu(2 - beta2), the weight exponent class of the
      t < 0 solutions;
    * delta2 = beta2 + mu(alpha2 - beta2), the effective order of the
      t < 0 mode equation.
    """

    alpha1: float
    theta: float
    alpha2: float
    beta2: float
    mu: float

    def __post_init__(self):
        for name in ("alpha1", "theta", "alpha2", "beta2", "mu"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.alpha1 <= 1.0:
            raise ValueError(f"alpha1 must lie in (0, 1], got {self.alpha1}")
        if not -math.inf < self.theta < 1.0:
            raise ValueError(f"theta must be finite and < 1, got {self.theta}")
        if not 1.0 < self.alpha2 <= 2.0:
            raise ValueError(f"alpha2 must lie in (1, 2], got {self.alpha2}")
        if not 1.0 < self.beta2 <= 2.0:
            raise ValueError(f"beta2 must lie in (1, 2], got {self.beta2}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")

    @property
    def p(self) -> float:
        return 1.0 - self.theta

    @property
    def gamma2(self) -> float:
        return self.beta2 + self.mu * (2.0 - self.beta2)

    @property
    def delta2(self) -> float:
        return self.beta2 + self.mu * (self.alpha2 - self.beta2)

    @property
    def hilfer_inner_order(self) -> float:
        """Order of the first (right-RL) integral, (1-mu)(2-beta2)."""
        return (1.0 - self.mu) * (2.0 - self.beta2)

    @property
    def hilfer_outer_order(self) -> float:
        """Order of the last (right-RL) integral, mu(2-alpha2)."""
        return self.mu * (2.0 - self.alpha2)


def _rule_sum(g, tt: np.ndarray, scaled, damp, weights) -> np.ndarray:
    """sum_i weights_i damp_i g(t scaled_i) for each t of the 1-d tt, its
    own row each, from one g call (a batch g: one row per t).  Each
    (t, column) sum runs over contiguous nodes, as a one-column sum does."""
    pts = np.multiply.outer(tt, scaled)
    vals = np.asarray(g(pts.ravel()), dtype=float)
    vals = np.moveaxis(vals.reshape(pts.shape + vals.shape[1:]), 1, -1)
    return (np.multiply(vals, damp, order="C") * weights).sum(axis=-1)


def _per_t(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a, one value per t, shaped to broadcast over out's batch axes."""
    return a.reshape(a.shape + (1,) * (out.ndim - 1))


def _shaped(shape: tuple, out: np.ndarray):
    """out, one value (or row) per t, in the shape of t: a float for a
    scalar t."""
    out = out.reshape(shape + out.shape[1:])
    return float(out) if out.ndim == 0 else out


def rl_integral_right(sigma: float, g, t, *, n: int = 256,
                      singular_exponent: float = 0.0):
    """Right-sided Riemann-Liouville integral of order sigma at t < 0.

    Computes (1/Gamma(sigma)) * integral_t^0 (s - t)^{sigma-1} g(s) ds
    by substituting s = t(1-x), which turns the kernel singularity into
    the Jacobi weight x^{sigma-1} on [0, 1].

    Parameters
    ----------
    sigma : float
        Integration order, > 0.
    g : callable
        Integrand on [t, 0]; takes a 1-d array of nodes and returns one
        value per node, or one row per node (a batch, see the module
        docstring).
    t : float or 1-d array
        Evaluation point(s), strictly negative.
    n : int, optional
        Node count of the Gauss-Jacobi rule with exponent pair
        (sigma - 1, singular_exponent).
    singular_exponent : float, optional
        Known power q such that g(s) * (-s)^{-q} stays smooth at s -> 0-.
        The rule absorbs (1-x)^q exactly instead of fighting it.
    """
    if sigma <= 0.0:
        raise ValueError(f"integration order must be positive, got {sigma}")
    tt = np.asarray(t, dtype=float).reshape(-1)
    if not np.all(tt < 0.0):
        raise ValueError(f"right-sided integral needs t < 0, got {t}")
    q = float(singular_exponent)
    quad = gauss_jacobi_rule(n, sigma - 1.0, q)
    x = quad.nodes
    out = _rule_sum(g, tt, 1.0 - x, (1.0 - x) ** (-q), quad.weights)
    scale = (-tt) ** sigma / gamma(sigma)
    return _shaped(np.shape(t), _per_t(scale, out) * out)


def ek_integral(gma: float, delta: float, beta: float, g, t,
                *, n: int = 256, singular_exponent: float = 0.0):
    """Erdelyi-Kober fractional integral I^{gma,delta}_beta g at t > 0.

    After the substitution v = (tau/t)^beta the definition collapses to

        (1/Gamma(delta)) * integral_0^1 (1-v)^{delta-1} v^gma g(t v^{1/beta}) dv

    with every power of t cancelling, so an n-node Gauss-Jacobi rule
    with pair (gma + singular_exponent, delta - 1) does all the work.

    ``singular_exponent`` plays the same role as in rl_integral_right:
    a known power q with g(t v^{1/beta}) ~ v^q near v = 0 (that is,
    g(tau) ~ tau^{q beta}) is folded into the weight.
    """
    if delta <= 0.0:
        raise ValueError(f"integral order must be positive, got {delta}")
    if beta <= 0.0:
        raise ValueError(f"index beta must be positive, got {beta}")
    tt = np.asarray(t, dtype=float).reshape(-1)
    if not np.all(tt > 0.0):
        raise ValueError(f"Erdelyi-Kober integral needs t > 0, got {t}")
    q = float(singular_exponent)
    if gma + q <= -1.0:
        raise ValueError("weight exponent gma + singular_exponent must exceed -1")
    quad = gauss_jacobi_rule(n, gma + q, delta - 1.0)
    v = quad.nodes
    out = _rule_sum(g, tt, v ** (1.0 / beta), v ** (-q), quad.weights)
    return _shaped(np.shape(t), out / gamma(delta))


def ek_derivative(gma: float, delta: float, beta: float, g, t,
                  *, n: int = 256, singular_exponent: float = 0.0):
    """Erdelyi-Kober fractional derivative D^{gma,delta}_beta g at t > 0.

    Applies the product Pi_{j=1..m}(gma + j + (t/beta) d/dt) to the
    integral I^{gma+delta, m-delta}_beta g with m = ceil(delta).  The
    inner integral is smooth in t for the solution class, so the outer
    first-order factors are safe to evaluate by central differences;
    their nested stencils are gathered before g is called.
    """
    if delta <= 0.0:
        raise ValueError(f"derivative order must be positive, got {delta}")
    tt = np.asarray(t, dtype=float).reshape(-1)
    if not np.all(tt > 0.0):
        raise ValueError(f"Erdelyi-Kober derivative needs t > 0, got {t}")
    m = math.ceil(delta)

    if m == delta:
        def inner(s):
            return np.asarray(g(s), dtype=float)
    else:
        def inner(s):
            return ek_integral(gma + delta, m - delta, beta, g, s, n=n,
                               singular_exponent=singular_exponent)

    def factored(j: int, s: np.ndarray) -> np.ndarray:
        # (gma + j + (s/beta) d/ds) applied to the (j-1)-fold composite.
        f = inner if j == 1 else (lambda x: factored(j - 1, x))
        h = np.minimum(np.maximum(1e-6, 1e-3 * s), 0.45 * s)
        up, mid, down = np.split(f(np.concatenate([s + h, s, s - h])), 3)
        deriv = (up - down) / _per_t(2.0 * h, up)
        bad = ~np.isfinite(deriv)
        if np.any(bad):
            raise NumericError("finite difference failed at "
                               f"t={s[np.nonzero(bad)[0][0]]:.3e}")
        return (gma + j) * mid + _per_t(s / beta, deriv) * deriv

    return _shaped(np.shape(t), factored(m, tt))


def hyper_bessel_caputo(op: OperatorParams, u, u0, t,
                        *, n: int = 256):
    """Regularized hyper-Bessel Caputo derivative of order alpha1 at t > 0.

    Evaluates p^{alpha1} t^{-p alpha1} D^{-alpha1, alpha1}_p (u - u0)
    with p = 1 - theta.  Subtracting u(0) first is what makes the
    operator kill constants; pass the true initial value as ``u0``, one
    value per column for a batch u.

    The solution class behaves like t^{p alpha1} near zero, so the inner
    Erdelyi-Kober integral gets that exponent absorbed into its rule.
    """
    a = op.alpha1
    p = op.p
    tt = np.asarray(t, dtype=float).reshape(-1)
    if not np.all(tt > 0.0):
        raise ValueError(f"hyper-Bessel derivative needs t > 0, got {t}")

    def w(s):
        return np.asarray(u(s), dtype=float) - u0

    if a == 1.0:
        # The operator degenerates to t^theta d/dt.
        h = np.minimum(np.maximum(1e-8, 1e-4 * tt), 0.45 * tt)
        wp, wm, hp, hm = np.split(
            w(np.concatenate([tt + h, tt - h, tt + h / 2, tt - h / 2])), 4)
        d1 = (wp - wm) / _per_t(2.0 * h, wp)
        d2 = (hp - hm) / _per_t(h, hp)
        out = _per_t(tt ** op.theta, d1) * ((4.0 * d2 - d1) / 3.0)
    else:
        out = ek_derivative(-a, a, p, w, tt, n=n, singular_exponent=a)
        out = _per_t(p ** a * tt ** (-p * a), out) * out
    return _shaped(np.shape(t), out)


def bi_ordinal_hilfer(op: OperatorParams, u, t, *, n: int = 256,
                      inner_exponent: float = 0.0,
                      outer_exponent: float = None):
    """Right-sided bi-ordinal Hilfer derivative at t < 0.

    Composition I^{c}_{0-} (d/dt)^2 I^{a}_{0-} u with inner order
    a = (1-mu)(2-beta2) and outer order c = mu(2-alpha2).  The inner
    integral is evaluated by rl_integral_right, its second derivative
    by a central difference with step 3e-3 |s|, which shrinks with the
    sample point s so the stencil never crosses t = 0, and the outer
    integral by another Jacobi rule; both rules have n nodes.  The
    inner integral is taken at every stencil point of every outer node
    of every t in one rl_integral_right call.

    Parameters
    ----------
    inner_exponent : float, optional
        Power q with u(s) ~ (-s)^q near 0-; forwarded to the inner rule.
    outer_exponent : float, optional
        Power e with (d/ds)^2 I^a u ~ (-s)^e near 0-.  When omitted it
        is inferred for the plain power class (e = q + a - 2, clipped
        at 0 for functions whose inner image is smooth); the weighted
        solution class needs the caller to pass its own exponent, since
        the Mittag-Leffler structure is not visible from q alone.

    Raises
    ------
    NumericError
        If t sits so close to 0 that no finite-difference stencil fits.
    """
    tt = np.asarray(t, dtype=float).reshape(-1)
    if not np.all(tt < 0.0):
        raise ValueError(f"bi-ordinal derivative needs t < 0, got {t}")
    if np.any(-tt < 1e-4):
        raise NumericError(
            f"evaluation point t={tt.max():.3e} is too close to 0: the "
            f"interior finite-difference step underflows; use |t| >= 1e-4"
        )
    a = op.hilfer_inner_order
    c = op.hilfer_outer_order
    q = float(inner_exponent)

    if a == 0.0:
        def inner(s):
            return np.asarray(u(s), dtype=float)
        e_default = max(q - 2.0, 0.0)
    else:
        def inner(s):
            return rl_integral_right(a, u, s, n=n, singular_exponent=q)
        e_default = q + a - 2.0
        if e_default > -0.25:
            # inner image at least this smooth; do not absorb anything
            e_default = 0.0

    e = float(outer_exponent) if outer_exponent is not None else e_default
    if e <= -1.0:
        raise ValueError(
            f"outer integrand exponent {e:.3f} is not integrable; u decays "
            f"too slowly at 0- for the integral composition to exist"
        )

    def second(s: np.ndarray) -> np.ndarray:
        h = 3e-3 * np.abs(s)
        bad = (h <= 0.0) | (s + h >= 0.0)
        if np.any(bad):
            raise NumericError(
                f"second-difference stencil at s={s[bad][0]:.3e} would "
                f"cross t=0"
            )
        up, u0, um = np.split(inner(np.concatenate([s + h, s, s - h])), 3)
        return (up - 2.0 * u0 + um) / _per_t(h * h, up)

    if c == 0.0:
        return _shaped(np.shape(t), second(tt))
    quad = gauss_jacobi_rule(n, c - 1.0, e)
    x = quad.nodes
    out = _rule_sum(second, tt, 1.0 - x, (1.0 - x) ** (-e), quad.weights)
    return _shaped(np.shape(t), _per_t((-tt) ** c / gamma(c), out) * out)
