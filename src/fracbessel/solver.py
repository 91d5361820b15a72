"""Mode system and series evaluators for the mixed-type problem.

The construction is classical separation of variables.  Project the
forcing onto J0(lam_k x); on the forward side (t > 0) each mode obeys a
hyper-Bessel Caputo relaxation equation whose solution is a
Mittag-Leffler decay plus a resolvent convolution G_k; on the backward
side (t < 0) each mode obeys a right-sided bi-ordinal Hilfer equation
whose general solution carries two weighted traces phi_k, psi_k plus
another convolution.  Value gluing forces phi_k = tau_k, the derivative
trace fixes psi_k proportional to tau_k, and the non-local history
condition closes the system as tau_k = F_k / Delta_k.  Delta_k is the
condition's defect of the free mode (tau_k = 1, no forcing) and F_k
minus its defect of the forced mode (zero traces), both read from the
one mode evaluator that also gives mode_matrix.

Everything here evaluates the explicit formulas; the independent
operator oracles live in fracops and never feed back into this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import NumericError, SolvabilityError
from .fracops import OperatorParams
from .quadrature import gauss_legendre_rule
from .specfun import MLParams, bessel_j, gamma, mittag_leffler
from .spectrum import Eigenvalue, eigenvalue_table, fourier_bessel_closed

__all__ = [
    "Forcing",
    "ProblemSpec",
    "TimeCoefficient",
    "ModeRecord",
    "SeriesSolution",
    "compute_Fk",
    "compute_Delta_k",
    "solve_modes",
    "mode_matrix",
    "radial_basis",
    "radial_bases",
    "eval_u",
    "eval_u_derivatives",
]

_NAN = float("nan")

# solve_modes refuses a mode whose |Delta_k| falls below this rather
# than divide its data through.
DELTA_FLOOR = 1e-10


def _finite(values, name: str) -> tuple:
    """values as a tuple of floats; a ValueError unless all are finite."""
    out = tuple(float(v) for v in values)
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{name} must be finite")
    return out


@dataclass(frozen=True)
class Forcing:
    """Right-hand side f(x, t), either a builtin separable family or a
    tabulated sample grid.

    The builtin family is x^4 (1-x)^3 q(x) * a(t) with polynomial q and
    a; the spatial prefactor hands every member the endpoint vanishing
    that the existence theory asks for (fourth-order zero at x = 0,
    third-order at x = 1).  ``space_poly`` and ``time_poly`` hold the
    coefficients of q and a in ascending powers.

    Tabulated forcing interpolates bilinearly between samples on a
    rectangular (x, t) grid; nothing about its smoothness is assumed.
    """

    kind: str = "separable_builtin"
    space_poly: tuple = (1.0,)
    time_poly: tuple = (1.0,)
    x_grid: Optional[tuple] = None
    t_grid: Optional[tuple] = None
    samples: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("separable_builtin", "tabulated"):
            raise ValueError(f"unknown forcing kind {self.kind!r}")
        if self.kind == "separable_builtin":
            sp = _finite(self.space_poly, "space_poly")
            tp = _finite(self.time_poly, "time_poly")
            if not sp or not tp:
                raise ValueError("polynomial coefficient lists must be non-empty")
            object.__setattr__(self, "space_poly", sp)
            object.__setattr__(self, "time_poly", tp)
        else:
            if self.x_grid is None or self.t_grid is None or self.samples is None:
                raise ValueError("tabulated forcing needs x_grid, t_grid, samples")
            xg = _finite(self.x_grid, "x_grid")
            tg = _finite(self.t_grid, "t_grid")
            sm = tuple(_finite(row, "samples") for row in self.samples)
            if len(xg) < 2 or len(tg) < 2:
                raise ValueError("tabulated grids need at least 2 points each")
            if any(b <= a for a, b in zip(xg, xg[1:])):
                raise ValueError("x_grid must be strictly increasing")
            if any(b <= a for a, b in zip(tg, tg[1:])):
                raise ValueError("t_grid must be strictly increasing")
            if len(sm) != len(xg) or any(len(r) != len(tg) for r in sm):
                raise ValueError("samples must have shape (len(x_grid), len(t_grid))")
            object.__setattr__(self, "x_grid", xg)
            object.__setattr__(self, "t_grid", tg)
            object.__setattr__(self, "samples", sm)

    @property
    def is_builtin(self) -> bool:
        return self.kind == "separable_builtin"

    def hypothesis_status(self) -> str:
        """Whether the existence-theorem smoothness/vanishing hypotheses
        hold: 'satisfied' for the builtin family (by construction),
        'unverifiable' for tabulated data."""
        return "satisfied" if self.is_builtin else "unverifiable"

    def spatial(self, x):
        """Spatial factor of the builtin family at x (array-ready)."""
        if not self.is_builtin:
            raise ValueError("tabulated forcing has no separable spatial factor")
        x = np.asarray(x, dtype=float)
        q = np.polynomial.polynomial.polyval(x, self.space_poly)
        return x ** 4 * (1.0 - x) ** 3 * q

    def time_factor(self, t):
        """Time factor a(t) of the builtin family (array-ready)."""
        if not self.is_builtin:
            raise ValueError("tabulated forcing has no separable time factor")
        t = np.asarray(t, dtype=float)
        return np.polynomial.polynomial.polyval(t, self.time_poly)

    def value(self, x, t):
        """Pointwise f(x, t); bilinear interpolation for tabulated data."""
        if self.is_builtin:
            return self.spatial(x) * self.time_factor(t)
        xg = np.asarray(self.x_grid)
        tg = np.asarray(self.t_grid)
        sm = np.asarray(self.samples)
        x = np.clip(np.asarray(x, dtype=float), xg[0], xg[-1])
        t = np.clip(np.asarray(t, dtype=float), tg[0], tg[-1])
        ix = np.clip(np.searchsorted(xg, x) - 1, 0, len(xg) - 2)
        it = np.clip(np.searchsorted(tg, t) - 1, 0, len(tg) - 2)
        wx = (x - xg[ix]) / (xg[ix + 1] - xg[ix])
        wt = (t - tg[it]) / (tg[it + 1] - tg[it])
        return ((1 - wx) * (1 - wt) * sm[ix, it] + wx * (1 - wt) * sm[ix + 1, it]
                + (1 - wx) * wt * sm[ix, it + 1] + wx * wt * sm[ix + 1, it + 1])


@dataclass(frozen=True)
class ProblemSpec:
    """Full statement of one problem instance.

    nonlocal_points holds (p_i, xi_i) pairs: weights and history times
    of the condition sum_i p_i (I^a u)(x, xi_i) = u(x, T), with the
    xi_i strictly increasing inside [-T, 0].  The modes run over the
    first N zeros of J0.
    """

    op: OperatorParams
    T: float
    nonlocal_points: tuple
    forcing: Forcing
    N: int = 50

    def __post_init__(self):
        object.__setattr__(self, "T", float(self.T))
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        pts = tuple((float(p), float(xi)) for p, xi in self.nonlocal_points)
        if not pts:
            raise ValueError("at least one non-local point is required")
        _finite((p for p, _ in pts), "non-local weights")
        xis = [xi for _, xi in pts]
        for i, xi in enumerate(xis):
            if not -self.T <= xi <= 0.0:
                raise ValueError(
                    f"xi_{i + 1}={xi} lies outside [-T, 0] with T={self.T}")
        bad = [i + 1 for i in range(len(xis) - 1) if xis[i] >= xis[i + 1]]
        if bad:
            raise ValueError(
                "non-local points must be strictly increasing in xi; "
                f"ordering fails at indices {bad}")
        object.__setattr__(self, "nonlocal_points", pts)
        if isinstance(self.N, bool) or not float(self.N).is_integer():
            raise ValueError(f"N must be a whole number, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if not self.forcing.is_builtin:
            xg, tg = self.forcing.x_grid, self.forcing.t_grid
            if xg[0] > 0.0 or xg[-1] < 1.0 or tg[0] > -self.T or tg[-1] < self.T:
                raise ValueError(
                    "tabulated forcing grid must cover [0,1] x [-T,T]")


@dataclass(frozen=True, eq=False)
class TimeCoefficient:
    """Time coefficient f_k(t) of one mode, in a form whose convolutions
    with the Mittag-Leffler kernels have closed forms.

    Builtin forcing gives f_k(t) = scale * a(t), with the coefficients
    of a in ascending powers in ``poly``.  Tabulated forcing gives the
    linear interpolant of ``values`` on ``t_grid``, held constant
    outside it.  A batch of modes carries an array of scales (or one row
    of values per mode); indexing a batch selects modes, and calling it
    gives one row per mode, of shape (modes,) + shape(t), each row with
    the bits of that mode's own call.
    """

    scale: object = 1.0
    poly: Optional[tuple] = None
    t_grid: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.poly is None) == (self.values is None):
            raise ValueError("give either poly or t_grid and values")
        if self.poly is not None:
            object.__setattr__(self, "poly",
                               tuple(float(a) for a in self.poly))
        else:
            object.__setattr__(self, "t_grid",
                               np.asarray(self.t_grid, dtype=float))
            object.__setattr__(self, "values",
                               np.asarray(self.values, dtype=float))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.poly is not None:
            return np.multiply.outer(
                self.scale, np.polynomial.polynomial.polyval(t, self.poly))
        if self.values.ndim == 1:
            return np.interp(t, self.t_grid, self.values)
        return np.array([np.interp(t, self.t_grid, row)
                         for row in self.values]).reshape(
                             self.values.shape[:1] + t.shape)

    def __getitem__(self, sel):
        if self.poly is not None:
            return replace(self, scale=self.scale[sel])
        return replace(self, values=self.values[sel])

    @classmethod
    def stack(cls, coefs) -> "TimeCoefficient":
        """One batch from single-mode coefficients of the same forcing."""
        first = coefs[0]
        if not all(isinstance(c, cls) for c in coefs):
            raise ValueError("mode time coefficients must be TimeCoefficient")
        if first.poly is not None:
            if any(c.poly != first.poly for c in coefs):
                raise ValueError("modes carry different time polynomials")
            return cls(scale=np.array([c.scale for c in coefs], dtype=float),
                       poly=first.poly)
        if any(not np.array_equal(c.t_grid, first.t_grid) for c in coefs):
            raise ValueError("modes carry different time grids")
        return cls(t_grid=first.t_grid,
                   values=np.stack([c.values for c in coefs]))


@dataclass(frozen=True)
class ModeRecord:
    """Everything known about one mode k.

    f_k is the mode's TimeCoefficient (the determinant alone accepts any
    callable)."""

    ev: Eigenvalue
    f_k: Callable
    Delta_k: float = _NAN
    F_k: float = _NAN
    tau_k: float = _NAN
    phi_k: float = _NAN
    psi_k: float = _NAN


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SeriesSolution:
    """Solved truncated series.

    The per-mode arrays lams, taus, phis and psis and the stacked time
    coefficients ``time_coefs`` are built once from the mode records;
    the arrays are read-only.  ``_memo`` keeps the arrays of the last x
    grid of radial_bases (lam x, J0, J1 and the order-1 and order-2
    matrices) and the mode column of the last t of eval_u and
    eval_u_derivatives, read-only: a field evaluated at many times on
    one grid, each time for u and then its derivatives, makes each only
    once."""

    spec: ProblemSpec
    modes: tuple
    tail_estimate: float
    lams: np.ndarray = field(init=False, repr=False, compare=False)
    taus: np.ndarray = field(init=False, repr=False, compare=False)
    phis: np.ndarray = field(init=False, repr=False, compare=False)
    psis: np.ndarray = field(init=False, repr=False, compare=False)
    time_coefs: TimeCoefficient = field(init=False, repr=False,
                                        compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ks = [m.ev.k for m in self.modes]
        if ks != sorted(ks):
            raise ValueError("modes must be sorted by k")
        if not math.isfinite(self.tail_estimate):
            raise ValueError("tail_estimate must be finite")
        for name, attr in (("lams", lambda m: m.ev.lam),
                           ("taus", lambda m: m.tau_k),
                           ("phis", lambda m: m.phi_k),
                           ("psis", lambda m: m.psi_k)):
            object.__setattr__(self, name,
                               _frozen([attr(m) for m in self.modes]))
        object.__setattr__(self, "time_coefs",
                           TimeCoefficient.stack([m.f_k for m in self.modes]))
        object.__setattr__(self, "_memo", {})


# ---------------------------------------------------------------------------
# resolvent convolutions
#
# Every convolution here is int_0^W w^{beta-1} E_{alpha,beta}(c w^alpha)
# g(W - w) dw, where g(y) = f_k(sign * y^q) reads the time coefficient
# backwards from t = 0 (sign -1, q = 1) or forwards in the substituted
# variable y = t^p (sign +1, q = 1/p).  Against a power (W - w)^{gam-1}
# the integral is exact (Kilbas-Srivastava-Trujillo 2006, sec. 1.9-1.10;
# Podlubny 1999, eqs. 1.99-1.100):
#
#   int_0^W w^{beta-1} E_{alpha,beta}(c w^alpha) (W-w)^{gam-1} dw
#       = Gamma(gam) W^{beta+gam-1} E_{alpha,beta+gam}(c W^alpha).
#
# Builtin forcing is a polynomial in t, so g is a sum of powers y^{mq}.
# A tabulated f_k is piecewise linear: f_k(sign*y) = g0 + g1 y +
# sum_j D_j (y - y_j)_+, and each hinge contributes D_j times the
# gam = 2 term evaluated at W - y_j itself: no difference of nearly
# equal terms arises when a kink sits next to either end of [0, W].
# Only the forward side of tabulated forcing with p != 1 keeps a
# quadrature, for the hinges in y^q, and there beta = alpha.  In
# v = |c| w^alpha the kernel weight goes into the measure,
# w^{alpha-1} dw = dv / (alpha |c|), and what is left, E_{alpha,alpha}(-v),
# is entire in v and the same function for every mode and every W.  The
# Legendre panels in v end at every kink image |c| (W - y_j)^alpha and
# follow a ratio-4 geometric ladder 4^m from m = -_HINGE_GRADING, the
# kernel scale v = 1 lying _HINGE_GRADING rungs up; each panel's order
# comes from its distance in v to the nearer branch point, v = 0 of
# w = (v/|c|)^{1/alpha} or v = |c| W^alpha of y^q.  The kernel values
# come from _KernelTable, one per alpha and built on first use:
# Chebyshev interpolants of E_{alpha,alpha}(-v) on [0, 1/2] and the
# dyadic pieces [2^k, 2^{k+1}], grown by whole pieces, each fitted to
# its own mittag_leffler values and checked by its trailing
# coefficients.  Wherever mittag_leffler meets its own 1e-12, the table
# agrees with it to _TABLE_RTOL of the piece's largest value.

_HINGE_NODES = 16
_HINGE_GRADING = 8
_HINGE_DIGITS = 13.0

_TABLE_NODES = 32         # Chebyshev points of a new piece
_TABLE_MAX_NODES = 256    # the most a piece may double to
_TABLE_TAIL = 1e-12       # its last coefficients, over its largest value
_TABLE_CHOP = 1e-13       # the coefficients dropped, likewise
_TABLE_RTOL = 5e-12       # the table against mittag_leffler, likewise
_TABLE_BLOCK = 8192       # points per evaluation block


class _Kernels:
    """The Mittag-Leffler values that one evaluation needs at one alpha,
    made by one mittag_leffler call with a beta per point.

    ``ask(beta, z)`` records a request and returns a function that gives
    E_{alpha,beta}(z), shaped as z; the first such function called makes
    the call for every request recorded by then.  Each value depends on
    its own (alpha, beta, z) only, so it has the bits of a call of its
    own."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self._asks = []
        self._values = None

    def ask(self, beta: float, z) -> Callable[[], np.ndarray]:
        z = np.asarray(z, dtype=float)
        n = len(self._asks)
        self._asks.append((float(beta), z))
        return lambda: self._value(n)

    def _value(self, n: int) -> np.ndarray:
        if self._values is None:
            betas = [b for b, _ in self._asks]
            sizes = [z.size for _, z in self._asks]
            beta = (betas[0] if len(set(betas)) == 1
                    else np.repeat(betas, sizes))
            vals = mittag_leffler(
                MLParams(alpha=self.alpha, beta=beta),
                np.concatenate([z.ravel() for _, z in self._asks]))
            self._values = [v.reshape(z.shape) for v, (_, z) in zip(
                np.split(vals, np.cumsum(sizes)[:-1]), self._asks)]
        return self._values[n]


def _term(ml: _Kernels, beta: float, z, coef):
    """coef E_{alpha,beta}(z), alpha that of ml, as a function that gives
    it once ml has its values.  A coef that is 0 for every mode asks for
    no kernel and gives 0."""
    if not np.any(coef):
        return lambda: 0.0
    E = ml.ask(beta, z)
    return lambda: coef * E()


def _power_kernel(ml: _Kernels, beta: float, c, W, gam: float):
    """Gamma(gam) W^{beta+gam-1} E_{alpha,beta+gam}(c W^alpha), alpha
    that of ml, as a function that gives it once ml has its values."""
    return _term(ml, beta + gam, c * W ** ml.alpha,
                 gamma(gam) * W ** (beta + gam - 1.0))


def _hinges(grid, values, sign: float):
    """Knots y_j > 0 and per-row g0, g1, D_j of g(y) = v(sign*y), v the
    linear interpolant of a row of ``values`` on ``grid``, held constant
    outside it, written as g0 + g1 y + sum_j D_j (y - y_j)_+; the last
    D_j makes the slope zero past the grid."""
    tg = np.asarray(grid, dtype=float)
    vals = np.atleast_2d(values)
    side = sign * tg > 0.0
    order = np.argsort(sign * tg[side])
    ys = (sign * tg[side])[order]
    g0 = np.array([np.interp(0.0, tg, row) for row in vals])
    gs = np.column_stack([g0, vals[:, side][:, order]])
    slopes = np.diff(gs, axis=1) / np.diff(np.concatenate([[0.0], ys]))
    slopes = np.column_stack([slopes, np.zeros(len(vals))])
    return ys, g0, slopes[:, 0], np.diff(slopes, axis=1)


@lru_cache(maxsize=None)
def _chebyshev_basis(n: int):
    """The n Chebyshev points x_j = cos(pi (j + 1/2) / n) and the (n, n)
    matrix taking values at them to the interpolant's coefficients."""
    ang = np.pi * np.outer(np.arange(n), np.arange(n) + 0.5) / n
    basis = np.cos(ang) * (2.0 / n)
    basis[0] *= 0.5
    return np.cos(ang[1]), basis


class _KernelTable:
    """E_{alpha,alpha}(-v) on v >= 0 from Chebyshev interpolants on the
    pieces [0, 1/2] (piece 0) and [2^{k-2}, 2^{k-1}] (piece k >= 1),
    built on first use and grown by whole pieces when a call reaches past
    the last one.

    A piece interpolates mittag_leffler at its own _TABLE_NODES Chebyshev
    points, doubled while its last four coefficients exceed _TABLE_TAIL
    of its largest value, and a NumericError once that would pass
    _TABLE_MAX_NODES; the coefficients whose sum stays under
    _TABLE_CHOP of that value are then dropped from its end.  Wherever
    mittag_leffler meets its own 1e-12, the table agrees with it to
    _TABLE_RTOL of the piece's largest value, which for 0 < alpha <= 1
    is the value at its left end: E_{alpha,alpha}(-v) is completely
    monotone.

    Clenshaw's recurrence sums the series in blocks of _TABLE_BLOCK
    points.  A block groups its points by series length, up to
    _TABLE_NODES terms and then each doubling beyond, and sums each
    group to its longest series (the others are zero-padded, which
    leaves their bits alone).  So a value depends on its own argument
    only: not on the other points of a call, nor on the order the pieces
    were built in."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.coef = np.zeros((0, 0))   # (terms, pieces), zero-padded
        self.terms = np.zeros(0, dtype=int)

    def _grow(self, pieces: int):
        todo = np.arange(self.terms.size, pieces)
        found = {}
        n = _TABLE_NODES
        while todo.size:
            if n > _TABLE_MAX_NODES:
                k = int(todo[0])
                raise NumericError(
                    f"E_{{{self.alpha},{self.alpha}}}(-v): no Chebyshev "
                    f"interpolant of {_TABLE_MAX_NODES} points meets "
                    f"{_TABLE_TAIL:.0e} on v in "
                    f"[{2.0 ** (k - 2) if k else 0.0:g}, {2.0 ** (k - 1):g}]")
            x, basis = _chebyshev_basis(n)
            # piece 0 is 0.25 (1 + x), piece k >= 1 is 2^{k-3} (3 + x)
            scale = np.where(todo == 0, 0.25, np.ldexp(1.0, todo - 3))
            v = scale[:, None] * (np.where(todo == 0, 1.0, 3.0)[:, None] + x)
            vals = mittag_leffler(MLParams(alpha=self.alpha, beta=self.alpha),
                                  -v)
            # summed point by point in a fixed order, so that a piece's
            # coefficients do not depend on the pieces built with it
            coef = np.zeros(vals.shape)
            for j in range(n):
                coef += vals[:, j:j + 1] * basis[:, j]
            top = np.abs(vals).max(axis=1)
            ok = np.abs(coef[:, -4:]).max(axis=1) <= _TABLE_TAIL * top
            for k, c, t in zip(todo[ok].tolist(), coef[ok], top[ok]):
                tail = np.cumsum(np.abs(c[::-1]))[::-1]
                found[k] = c[:max(1, int(np.count_nonzero(
                    tail > _TABLE_CHOP * t)))]
            todo = todo[~ok]
            n *= 2
        rows = max([self.coef.shape[0]] + [c.size for c in found.values()])
        coef = np.zeros((rows, pieces))
        coef[:self.coef.shape[0], :self.terms.size] = self.coef
        for k, c in found.items():
            coef[:c.size, k] = c
        self.coef = coef
        self.terms = np.concatenate(
            [self.terms, [found[k].size for k in sorted(found)]]).astype(int)

    def __call__(self, v) -> np.ndarray:
        shape = np.shape(v)
        v = np.asarray(v, dtype=float).ravel()
        out = np.empty(v.size)
        if not v.size:
            return out.reshape(shape)
        top = float(v.max())
        pieces = 1 if top < 0.5 else math.frexp(top)[1] + 2
        if pieces > self.terms.size:
            self._grow(pieces)
        for lo in range(0, v.size, _TABLE_BLOCK):
            vb = v[lo:lo + _TABLE_BLOCK]
            ob = out[lo:lo + _TABLE_BLOCK]
            mant, expo = np.frexp(vb)
            low = vb < 0.5
            k = np.where(low, 0, expo + 1)
            x = np.where(low, 4.0 * vb - 1.0, 4.0 * mant - 3.0)
            terms = self.terms.take(k)
            # each doubling of the series length on its own
            lower, n = 0, _TABLE_NODES
            while lower < _TABLE_MAX_NODES:
                sel = (terms > lower) & (terms <= n)
                if sel.any():
                    ob[sel] = self._clenshaw(k[sel], x[sel],
                                             int(terms[sel].max()))
                lower, n = n, 2 * n
        return out.reshape(shape)

    def _clenshaw(self, k, x, n: int) -> np.ndarray:
        """sum_j c_j T_j(x) over the first n coefficients of pieces k."""
        x2 = x + x
        b0, b1, b2 = np.empty(x.shape), np.zeros(x.shape), np.zeros(x.shape)
        tmp = np.empty(x.shape)
        # k is always in range; mode "clip" only skips the bounds check
        for j in range(n - 1, 0, -1):
            self.coef[j].take(k, out=b0, mode="clip")
            np.multiply(x2, b1, out=tmp)
            b0 += tmp
            b0 -= b2
            b0, b1, b2 = b2, b0, b1
        self.coef[0].take(k, out=b0, mode="clip")
        np.multiply(x, b1, out=tmp)
        b0 += tmp
        b0 -= b2
        return b0


@lru_cache(maxsize=8)
def _kernel_table(alpha: float) -> _KernelTable:
    """The one _KernelTable of E_{alpha,alpha}(-v)."""
    return _KernelTable(alpha)


def _hinge_quadrature(alpha, c, W, knots, D, q):
    """sum_j D_j int_0^{W-y_j} w^{alpha-1} E_{alpha,alpha}(c w^alpha)
    ((W-w)^q - s_j) dw over the knot times s_j, with y_j = s_j^{1/q},
    per mode (entries of c < 0, rows of D) and W.

    In v = |c| w^alpha the integral is 1/(alpha |c|) times one over
    [0, |c| (W - y_0)^alpha] of E_{alpha,alpha}(-v) against the hinges.
    The panel edges of every (mode, W) row with W > y_0 come from one
    array pass, the kernel values of all nodes from one table call, and
    the rows are summed by one bincount, each row in the order of its
    panels' Legendre orders and then of its panels.
    """
    out = np.zeros((len(c), len(W)))
    if not knots.size:
        return out
    ys = knots ** (1.0 / q)
    live = W > ys[0]
    if not live.any():
        return out
    Wl = W[live]
    ac = -np.asarray(c, dtype=float)
    nm, nw = ac.size, Wl.size
    # kink images |c| (W - y_j)^alpha, the first being the row's end V,
    # and the ladder 4^m below V; each row sorted, repeats and masked
    # entries dropped
    gap = Wl[:, None] - ys
    images = (ac[:, None, None]
              * np.where(gap > 0.0, gap, np.inf)[None] ** alpha
              ).reshape(nm * nw, -1)
    V = images[:, 0]
    # V < 2^expo for every row, so the rungs below V have m < expo / 2
    expo = math.frexp(float(V.max()))[1]
    ladder = 4.0 ** np.arange(-_HINGE_GRADING,
                              max(-_HINGE_GRADING, (expo + 1) // 2))
    cand = np.sort(np.concatenate(
        [images, np.where(ladder < V[:, None], ladder, np.inf)], axis=1),
        axis=1)
    keep = np.isfinite(cand)
    keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    hi = cand[keep]
    owner = np.nonzero(keep)[0]
    first = np.concatenate([[True], owner[1:] != owner[:-1]])
    lo = np.where(first, 0.0, np.roll(hi, 1))
    # Bernstein-ellipse parameter of each panel for its nearer branch
    # point, v = 0 or v = |c| W^alpha, and the Gauss order that reaches
    # ~1e-13 there
    branch = (ac[:, None] * Wl ** alpha).ravel()[owner]
    e = np.minimum(hi + lo, 2.0 * branch - hi - lo) / (hi - lo)
    with np.errstate(divide="ignore"):
        order = np.ceil(_HINGE_DIGITS / np.log(e + np.sqrt(e * e - 1.0)))
    order = np.clip(order, 4, _HINGE_NODES).astype(int)
    width = hi - lo
    vs, wts, owns = [], [], []
    for n in np.flatnonzero(np.bincount(order)).tolist():
        sel = np.flatnonzero(order == n)
        rule = gauss_legendre_rule(n)
        span = width[sel][:, None]
        vs.append((lo[sel][:, None] + span * rule.nodes).ravel())
        wts.append((span * rule.weights).ravel())
        owns.append(np.repeat(owner[sel], n))
    v = np.concatenate(vs)
    own = np.concatenate(owns)
    # sum_{s_j < t} D_j (t - s_j) = t sum D_j - sum D_j s_j over the
    # knots below t, from running sums over the sorted knots, read from
    # their flattened rows of len(knots) + 1 per mode
    cum_d = np.cumsum(np.pad(D, ((0, 0), (1, 0))), axis=1)
    cum_ds = np.cumsum(np.pad(D * knots, ((0, 0), (1, 0))), axis=1)
    t = (np.tile(Wl, nm).take(own)
         - (v / np.repeat(ac, nw).take(own)) ** (1.0 / alpha)) ** q
    j = np.searchsorted(knots, t)
    j += np.repeat(np.arange(nm) * cum_d.shape[1], nw).take(own)
    g = t * cum_d.take(j) - cum_ds.take(j)
    terms = np.concatenate(wts) * _kernel_table(alpha)(v) * g
    sums = np.bincount(own, terms, minlength=nm * nw).reshape(nm, nw)
    out[:, live] = sums / (alpha * ac[:, None])
    return out


def _conv(ml: _Kernels, beta: float, c, W, f: TimeCoefficient, *,
          sign: float = 1.0, q: float = 1.0):
    """int_0^W w^{beta-1} E_{alpha,beta}(c w^alpha) f(sign (W-w)^q) dw,
    alpha that of ml, one row per mode (entries of c, rows of f) and one
    column per W, as a function that gives it once ml has its values.
    Tabulated f with q != 1 takes beta = alpha (the forward side)."""
    c = np.asarray(c, dtype=float).reshape(-1, 1)
    W = np.asarray(W, dtype=float).reshape(-1)
    if f.poly is not None:
        terms = [(am * sign ** m, _power_kernel(ml, beta, c, W, m * q + 1.0))
                 for m, am in enumerate(f.poly) if am != 0.0]

        def poly():
            out = np.zeros((c.shape[0], W.size))
            for coef, kernel in terms:
                out += coef * kernel()
            return np.atleast_1d(f.scale)[:, None] * out
        return poly
    ys, g0, g1, D = _hinges(f.t_grid, f.values, sign)
    k0 = _power_kernel(ml, beta, c, W, 1.0)
    k1 = _power_kernel(ml, beta, c, W, q + 1.0)
    if q != 1.0:
        hinge = _hinge_quadrature(ml.alpha, c[:, 0], W, ys, D, q)
        return lambda: g0[:, None] * k0() + g1[:, None] * k1() + hinge
    X = W[:, None] - ys[None, :]
    inside = X > 0.0
    kink = _power_kernel(ml, beta, c, X[inside], 2.0) if inside.any() else None

    def tabulated():
        out = g0[:, None] * k0() + g1[:, None] * k1()
        if kink is not None:
            hinge = np.zeros((c.shape[0],) + X.shape)
            hinge[:, inside] = kink()
            # each (mode, W) row is summed on its own, so that a mode's
            # value does not depend on the other modes of the batch
            out += (hinge * D[:, None, :]).sum(axis=2)
        return out
    return tabulated


def _mode_values(op: OperatorParams, lams, taus, phis, psis,
                 f: TimeCoefficient, ts, order: float = 0.0) -> np.ndarray:
    """mode_matrix of the modes with these eigenvalues, traces and time
    coefficients (entries of lams, taus, phis, psis; rows of f).  On
    t > 0 a mode is tau_k E_{a,1}(-cb t^{pa}) plus its convolution with
    f_k, a = alpha1 and cb = lam^2 / p^a; on t = -W < 0 the traces phi_k
    and psi_k sit on W^{g-2} E_{d,g-1} and W^{g-1} E_{d,g} (d = delta2,
    g = gamma2) beside the resolvent convolution, all shifted by
    ``order``."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    out = np.empty((lams.size, ts.size))
    pos, neg = ts > 0.0, ts < 0.0
    out[:, ~(pos | neg)] = taus[:, None]
    if pos.any():
        if order != 0.0:
            raise ValueError("integrated mode values need t <= 0")
        a, p = op.alpha1, op.p
        pa = p ** a
        c = -lams[:, None] ** 2 / pa
        forward = _Kernels(a)
        E = _term(forward, 1.0, c * ts[pos] ** (a * p), taus[:, None])
        G = _conv(forward, a, c, ts[pos] ** p, f, q=1.0 / p)
        out[:, pos] = E() + G() / pa
    if neg.any():
        d, g = op.delta2, op.gamma2
        c = -lams[:, None] ** 2
        W = -ts[neg]
        z = c * W ** d
        backward = _Kernels(d)
        e_phi = _term(backward, g - 1.0 + order, z,
                      phis[:, None] * W ** (g - 2.0 + order))
        e_psi = _term(backward, g + order, z,
                      psis[:, None] * W ** (g - 1.0 + order))
        conv = _conv(backward, d + order, c, W, f, sign=-1.0)
        out[:, neg] = e_phi() - e_psi() + conv()
    return out


def _mode_batch(mode):
    """The records of ``mode`` (one ModeRecord or a sequence of them),
    their lam_k, and whether a single record was given."""
    single = isinstance(mode, ModeRecord)
    modes = (mode,) if single else tuple(mode)
    return modes, np.array([m.ev.lam for m in modes]), single


def _traces(op: OperatorParams, lams, taus):
    """Backward traces (phi_k, psi_k) of modes with forward trace tau_k:
    value gluing gives phi_k = tau_k, and the derivative trace carries
    psi_k = -lam_k^2 / (p^alpha1 Gamma(alpha1)) tau_k across t = 0."""
    pa = op.p ** op.alpha1 * gamma(op.alpha1)
    return taus, -(lams ** 2 / pa) * taus


def _defect(spec: ProblemSpec, lams, taus, phis, psis, f):
    """What the non-local condition leaves of the modes with these traces
    and time coefficients: sum_i p_i (I^a u_k)(xi_i) - u_k(T), a the
    Hilfer inner order, one entry per mode.  Points with p_i = 0 are
    dropped; a point at xi_i = 0 reads the trace tau_k."""
    op = spec.op
    pts = [(p_i, xi) for p_i, xi in spec.nonlocal_points if p_i != 0.0]
    hist = _mode_values(op, lams, taus, phis, psis, f,
                        [xi for _, xi in pts], op.hilfer_inner_order)
    total = np.zeros(lams.shape)
    for j, (p_i, _) in enumerate(pts):
        total = total + p_i * hist[:, j]
    return total - _mode_values(op, lams, taus, phis, psis, f, [spec.T])[:, 0]


def compute_Fk(mode, spec: ProblemSpec):
    """Right-hand side F_k of the mode system: minus the non-local
    condition's defect of the forced mode, the mode with zero traces and
    the record's time coefficient f_k.

    ``mode`` is one ModeRecord (a float is returned) or a sequence of
    them (an array, with one Mittag-Leffler call per side for all).
    """
    modes, lams, single = _mode_batch(mode)
    zeros = np.zeros(lams.shape)
    out = -_defect(spec, lams, zeros, *_traces(spec.op, lams, zeros),
                   TimeCoefficient.stack([m.f_k for m in modes]))
    return float(out[0]) if single else out


def compute_Delta_k(mode, spec: ProblemSpec):
    """Per-mode solvability determinant Delta_k: the non-local
    condition's defect of the free mode, the mode with tau_k = 1, its
    glued backward traces and no forcing.  The record's f_k is not read.

    ``mode`` is one ModeRecord (a float is returned) or a sequence of
    them (an array, with one Mittag-Leffler call per side for all).
    """
    _, lams, single = _mode_batch(mode)
    ones = np.ones(lams.shape)
    out = _defect(spec, lams, ones, *_traces(spec.op, lams, ones),
                  TimeCoefficient(scale=np.zeros(lams.shape), poly=(0.0,)))
    return float(out[0]) if single else out


def delta_limit(spec: ProblemSpec) -> float:
    """Large-k limit of Delta_k.

    The backward bracket tends to (-xi)^{1-delta2} / (p^{a1} Gamma(a1)
    Gamma(2-delta2)) per point.  At xi = 0 the bracket is
    E_{delta2,1}(0) = 1 for every k, so that point adds its weight p_i.

    Raises NumericError at delta2 = 2 when some xi is not 0: the bracket
    then holds E_{2,1}(-x^2) = cos(x) at an x that grows with lam, which
    has no limit.
    """
    op = spec.op
    pa = op.p ** op.alpha1 * gamma(op.alpha1)
    denom = pa * gamma(2.0 - op.delta2) if op.delta2 != 2.0 else None
    total = 0.0
    for p_i, xi in spec.nonlocal_points:
        if xi == 0.0:
            total += p_i
            continue
        if denom is None:
            raise NumericError(
                f"Delta_k has no large-k limit at delta2 = 2: at xi = {xi} "
                "its bracket holds E_(2,1)(-x^2) = cos(x) with x growing "
                "like lambda_k")
        total += p_i * (-xi) ** (1.0 - op.delta2) / denom
    return total


# ---------------------------------------------------------------------------
# mode assembly

def _mode_coefficient_callables(spec: ProblemSpec, eigs) -> list:
    """Build the time coefficients f_k(t) of every mode from the
    closed-form projection of the forcing."""
    forcing = spec.forcing
    if forcing.is_builtin:
        P = np.polynomial.polynomial
        # x^4 (1 - x)^3 q(x) in ascending powers
        poly = P.polymul(P.polymul((0.0, 0.0, 0.0, 0.0, 1.0),
                                   (1.0, -3.0, 3.0, -1.0)), forcing.space_poly)
        scales = fourier_bessel_closed(eigs, poly)
        return [TimeCoefficient(scale=float(c), poly=forcing.time_poly)
                for c in scales]
    # Tabulated: every time slice of the bilinear interpolant is linear
    # between the x samples and constant outside them, a line plus
    # hinges; f_k is then linear in t between the slices.
    tg = _frozen(forcing.t_grid)
    knots, g0, g1, D = _hinges(forcing.x_grid, np.transpose(forcing.samples),
                               1.0)
    rows = fourier_bessel_closed(eigs, np.stack([g0, g1]), knots, D.T)
    return [TimeCoefficient(t_grid=tg, values=_frozen(row)) for row in rows]


def solve_modes(spec: ProblemSpec) -> SeriesSolution:
    """Assemble all N modes and close the system.

    Delta_k and F_k of every mode come from one call each.  Raises
    SolvabilityError at the first k whose determinant falls below
    DELTA_FLOOR, before any F_k is computed.
    """
    eigs = eigenvalue_table(spec.N)
    f_ks = _mode_coefficient_callables(spec, eigs)
    partial = [ModeRecord(ev=ev, f_k=f_k) for ev, f_k in zip(eigs, f_ks)]
    deltas = compute_Delta_k(partial, spec)
    low = np.flatnonzero(np.abs(deltas) < DELTA_FLOOR)
    if low.size:
        raise SolvabilityError(eigs[low[0]].k, float(deltas[low[0]]),
                               DELTA_FLOOR)
    Fs = compute_Fk(partial, spec)
    taus = Fs / deltas
    phis, psis = _traces(spec.op, np.array([ev.lam for ev in eigs]), taus)
    modes = [replace(m, Delta_k=d, F_k=F, tau_k=t, phi_k=ph, psi_k=ps)
             for m, d, F, t, ph, ps in zip(
                 partial, *(v.tolist() for v in (deltas, Fs, taus, phis,
                                                 psis)))]
    tail = abs(modes[-1].tau_k) * math.sqrt(spec.N)
    return SeriesSolution(spec=spec, modes=tuple(modes), tail_estimate=tail)


# ---------------------------------------------------------------------------
# series evaluation

def mode_matrix(sol: SeriesSolution, ts, *, modes=None,
                order: float = 0.0) -> np.ndarray:
    """Mode values u_k(t), one row per mode and one column per t.

    ``modes`` selects rows (a slice or an index array into the mode
    list; default all).  At t = 0 the column is tau_k, the forward
    trace.  A positive ``order`` gives the right-sided Riemann-Liouville
    integral of that order of each backward mode instead and needs
    t <= 0; at order 2 - gamma2 its t = 0 limit is the weighted trace
    phi_k = tau_k.  Each side makes one Mittag-Leffler call, besides
    any growth of the forward hinges' kernel table.
    """
    sel = slice(None) if modes is None else modes
    return _mode_values(sol.spec.op, sol.lams[sel], sol.taus[sel],
                        sol.phis[sel], sol.psis[sel], sol.time_coefs[sel],
                        ts, order)


def _check_point(sol: SeriesSolution, x, t: float):
    xs = np.asarray(x, dtype=float)
    if xs.size and (xs.min() < -1e-12 or xs.max() > 1.0 + 1e-12):
        raise ValueError("x must lie in [0, 1]")
    if not -sol.spec.T <= t <= sol.spec.T:
        raise ValueError(f"t={t} outside [-T, T] with T={sol.spec.T}")


def radial_basis(sol: SeriesSolution, x, order: int = 0) -> np.ndarray:
    """Synthesis matrix, one row per x and one column per mode: J0(lam x)
    for u (order 0), -lam J1(lam x) for u_x (order 1) and, by Bessel's
    equation, lam^2 (J1(lam x)/(lam x) - J0(lam x)) for u_xx (order 2),
    which is -lam^2/2 at x = 0.  Times a mode_matrix it gives the
    truncated series or its term-wise derivatives."""
    return radial_bases(sol, x, (order,))[0]


def radial_bases(sol: SeriesSolution, x, orders) -> list:
    """radial_basis of each order in orders, all from one J0 and one J1
    evaluation over the (x, mode) grid.  The grid keeps lam x, J0, J1
    and the order-1 and order-2 matrices, read-only, once made: an x
    grid equal to the last one reuses them, and the order-0 matrix is
    J0 itself."""
    if not set(orders) <= {0, 1, 2}:
        raise ValueError(f"orders must be 0, 1 or 2; got {orders!r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    memo = sol._memo.get("bases")
    if memo is None or not np.array_equal(memo["x"], x):
        memo = sol._memo["bases"] = {"x": _frozen(x),
                                     "lx": np.outer(x, sol.lams)}
    lx = memo["lx"]
    # J0 serves orders 0 and 2, J1 orders 1 and 2
    for k, users in ((0, {0, 2}), (1, {1, 2})):
        if users & set(orders) and k not in memo:
            memo[k] = bessel_j(k, lx)
    if 1 in orders and "d1" not in memo:
        memo["d1"] = -sol.lams * memo[1]
    if 2 in orders and "d2" not in memo:
        j1_over = np.divide(memo[1], lx, out=np.full_like(lx, 0.5),
                            where=lx > 0.0)
        memo["d2"] = sol.lams ** 2 * (j1_over - memo[0])
    for kept in memo.values():
        kept.setflags(write=False)
    return [memo[(0, "d1", "d2")[order]] for order in orders]


def _mode_column(sol: SeriesSolution, t: float) -> np.ndarray:
    """mode_matrix(sol, [t])[:, 0], kept for the next call at this t."""
    memo = sol._memo.get("column")
    if memo is None or memo[0] != t:
        col = mode_matrix(sol, [t])[:, 0]
        col.setflags(write=False)
        memo = sol._memo["column"] = (t, col)
    return memo[1]


def eval_u(sol: SeriesSolution, x, t: float):
    """Truncated series u(x, t); scalar in, scalar out (or ndarray for
    array x).  At t = 0 this is the forward-side trace sum tau_k J0."""
    _check_point(sol, x, t)
    out = radial_basis(sol, x) @ _mode_column(sol, t)
    return float(out[0]) if np.ndim(x) == 0 else out


def eval_u_derivatives(sol: SeriesSolution, x, t: float):
    """Term-wise spatial derivatives (u_x, u_xx) at (x, t)."""
    _check_point(sol, x, t)
    vals = _mode_column(sol, t)
    ux, uxx = (basis @ vals for basis in radial_bases(sol, x, (1, 2)))
    if np.ndim(x) == 0:
        return float(ux[0]), float(uxx[0])
    return ux, uxx
