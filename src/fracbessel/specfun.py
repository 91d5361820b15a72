"""Gamma, Bessel J0/J1, and a two-parameter Mittag-Leffler function.

The Mittag-Leffler evaluator is the workhorse of the package.  Every
time kernel on either side of t = 0 reduces to E_{alpha,beta} on the
negative real axis, at arguments running from 0 down to about
-lambda_N^2 T^2 with lambda_N in the hundreds, and no single expansion
covers that range in float64.  The evaluator therefore runs an
accuracy-tracked cascade:

* the ascending power series, planned per point before a term is
  summed: its first term gates every point, and only the points that
  pass get a plan.  The largest term, the larger of the first and the
  term at the hump index, gates it where cancellation would eat the
  requested digits, and a term count from Newton steps on Stirling's
  form says where it stops.  The points are sorted by count and the
  terms summed in tiles of (terms x points still summing) with Sum2, a
  running sum plus the running sum of its TwoSum errors; the measured
  largest term and the last term accept the value;
* the algebraic asymptotic expansion with optimal truncation, plus the
  exponential residue pair that appears for alpha > 1, accepted when
  the first omitted term is small enough, summed in the same tiles.
  Before any tile, a point on the negative axis whose envelope stop
  and envelope minimum, read from |z| and the cached envelope, prove
  that the accept test must fail goes straight to the contour;
* a Hankel-contour quadrature for the band in between, where neither
  expansion reaches tolerance: one fixed rule per (alpha, beta) on an
  arc and two rays turned at least pi/8 away from the pole pair, plus
  the pair's residues when the rays pass beyond it.  Its sum runs in
  blocks of _CONTOUR_CELLS // (rule nodes) points through two work
  buffers that stay in cache, allocated once per rule and call.

The nominal regime boundaries (|z| around 5 and 50) are useful mental
markers but carry no authority; the handoff is decided per point by
the error tracking above.

Every value depends on its own (alpha, beta, z) only: never on the
other points of a call, their order or the chunk they fall in.
Callers may therefore batch freely, and the solver evaluates each
kernel for all modes in one call.  ``mittag_leffler`` sorts a call's
arguments once and runs the cascade on _CHUNK-point chunks of that
order, so a chunk holds neighbouring |z|, mostly of one regime; a
repeated argument is simply evaluated again.

1/Gamma, ln Gamma, psi, the Bessel functions and 1F1(1; b; z) come
from the numpy ports of ``_special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _special
from .errors import NumericError
from .quadrature import gauss_legendre_rule

__all__ = ["MLParams", "gamma", "rgamma", "bessel_j", "mittag_leffler"]

# relative accuracy every value is held to
_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)
# below 2^-55 |s| a term cannot move the float64 partial sum s
_ULP_FLOOR = 2.0 ** -55

# Gauss-Legendre nodes on the contour's arc and on each panel of its
# ray; with 16 on the arc, points near zeros of E at |z| ~ 1 lose digits.
_ARC_NODES = 32
_RAY_NODES = 16
# (points x nodes) cells per block of the contour sum: its two work
# buffers then take 256 KiB each and stay in a core's L2 cache.  Each
# point's sum is its own row, so blocks never change it.
_CONTOUR_CELLS = 1 << 15
# points per call of the cascade; its work rows of this many float64
# take 64 KiB each
_CHUNK = 8192

# The series and asymptotic sums run in tiles of K terms by the points
# still summing, K = _TILE_CELLS // points clamped to [1, _TILE_TERMS]:
# a call of a few dozen points makes a few tiles, and a chunk one term
# per tile.
_TILE_CELLS = 4096
_TILE_TERMS = 64
# the longest series; a point that needs more goes to the next regime
_SERIES_TERMS = 16384
# the longest asymptotic sum
_ASYMP_TERMS = 160
# margins of the asymptotic prediction (_asymp_hopeful): in ln|z| against
# the envelope's stop thresholds, and the relative slack on either side
# of the accept test; both dwarf the rounding of what they cover
_ASYMP_ETA = 1e-9
_ASYMP_SLACK = 1e-3
# natural-log budget of the series' predicted cancellation on the
# negative axis: 15.8 float64 digits less the digits of _RTOL
_SERIES_LOST = (15.8 + math.log10(_RTOL)) * math.log(10.0)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def gamma(x: float) -> float:
    """Gamma function for real scalar arguments.

    Thin wrapper over the C library implementation, which is accurate
    to a few ulp across [-170, 170].  Non-positive integers raise
    ``ValueError`` (the poles), large arguments raise ``OverflowError``.
    """
    return math.gamma(x)


def rgamma(x):
    """Reciprocal gamma function 1/Gamma(x), elementwise.

    Returns exactly 0.0 at the poles of Gamma, which is the limit that
    makes asymptotic-series coefficients with non-positive integer
    arguments drop out cleanly.
    """
    out = _special.rgamma(x)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=1024)
def _rgamma1(x: float) -> float:
    """1/Gamma(x) for one float, memoized: the evaluator asks for the
    same few values on every call."""
    return float(_special.rgamma(x))


@lru_cache(maxsize=1024)
def _gammaln1(x: float) -> float:
    """ln|Gamma(x)| for one float from the C library, memoized; inf at
    the poles."""
    if x <= 0.0 and x == math.floor(x):
        return math.inf
    return math.lgamma(x)


def bessel_j(order: int, x):
    """Bessel function J_nu for nu in {0, 1} and x >= 0.

    Parameters
    ----------
    order : int
        0 or 1, all that a zero-order Fourier-Bessel expansion and its
        first two derivatives need (Bessel's equation gives J2).
    x : float or ndarray
        Non-negative argument(s).

    Returns
    -------
    float or ndarray
        J_order(x), scalar in, scalar out.
    """
    if order not in (0, 1):
        raise ValueError(f"bessel_j supports orders 0, 1; got {order!r}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("bessel_j requires x >= 0")
    val = (_special.j0, _special.j1)[order](arr)
    return float(val) if arr.ndim == 0 else val


@dataclass(frozen=True)
class MLParams:
    """Parameter pair (alpha, beta) of the Mittag-Leffler function.

    alpha must lie in (0, 2]; every kernel in this package has its
    first parameter in that range.  beta is any finite real.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        a = float(self.alpha)
        b = float(self.beta)
        if not (0.0 < a <= 2.0):
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha!r}")
        if not math.isfinite(b):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def mittag_leffler(p: MLParams, z):
    """Evaluate E_{alpha,beta}(z) for real z, scalar or array.

    Parameters
    ----------
    p : MLParams
        The (alpha, beta) pair.
    z : float or ndarray
        Real argument(s).  The negative axis is the accuracy-critical
        regime and is honoured down to -1e8 and beyond; large positive
        arguments may overflow to ``inf``, which is the honest answer
        for an entire function of exponential order.

    Returns
    -------
    float or ndarray
        E_{alpha,beta}(z), matching the shape of ``z``, to a relative
        accuracy of 1e-12.

    Notes
    -----
    One argsort orders the arguments; the cascade runs on chunks of
    _CHUNK (8192) points of that order and the values go back through
    it.  Arguments are not deduplicated: the package's calls repeat
    none, and a repeated one gets the same bits again.  In each chunk
    the series plans only the points its first-term gate passes.
    """
    if not isinstance(p, MLParams):
        raise TypeError("first argument must be an MLParams instance")
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("mittag_leffler requires finite z")
    flat = np.atleast_1d(arr).ravel()
    # One ascending sort: each chunk then holds neighbouring arguments,
    # mostly of one regime, and the values go back through the order.
    order = np.argsort(flat)
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _CHUNK):
        sel = order[lo:lo + _CHUNK]
        out[sel] = _ml_core(p.alpha, p.beta, flat[sel])
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# dispatcher


def _ml_core(a: float, b: float, z: np.ndarray) -> np.ndarray:
    out = np.full(z.shape, np.nan)
    todo = np.ones(z.shape, dtype=bool)

    zero = z == 0.0
    if zero.any():
        out[zero] = _rgamma1(b)
        todo &= ~zero

    if a == 1.0:
        if todo.any():
            out[todo] = _ml_alpha_one(b, z[todo])
        return out

    if a == 2.0 and abs(b - round(b)) < 1e-12 and 1 <= round(b) <= 9:
        # Closed trigonometric forms.  Their recurrence in b loses a
        # factor of about (m-1)(m-2)/|z| at its step to E_{2,m}, so they
        # hold only once |z| is not small against b (4.6e-11 at b = 9,
        # z = -0.5, where the cascade gives 6e-17), and on the positive
        # axis only while cosh(sqrt(z)) is finite.
        bint = int(round(b))
        m = todo & (np.abs(z) >= max(0.5, bint - 1.0)) & (z <= 709.0 ** 2)
        if m.any():
            out[m] = _ml_alpha_two_int(bint, z[m])
            todo &= ~m

    if todo.any():
        idx = np.flatnonzero(todo & _series_hopeful(a, b, z))
        if idx.size:
            zs = z if idx.size == z.size else z[idx]
            safe, count = _series_plan(a, b, zs)
            idx, zs, count = _narrow(safe, idx, zs, count)
            if idx.size:
                val, ok = _series_block(a, b, zs, count)
                idx, val = _narrow(ok, idx, val)
                out[idx] = val
                todo[idx] = False

    if todo.any():
        idx = np.flatnonzero(todo)
        zs = z if idx.size == z.size else z[idx]
        idx, zs = _narrow(_asymp_hopeful(a, b, zs), idx, zs)
        if idx.size:
            val, ok = _asymp_block(a, b, zs)
            idx, val = _narrow(ok, idx, val)
            out[idx] = val
            todo[idx] = False

    m = todo & (z < 0.0)
    if m.any():
        out[m] = _contour_block(a, b, z[m])
        todo &= ~m

    if todo.any():
        # Positive arguments that dodged both expansions: force the
        # series, at most _SERIES_TERMS terms; overflow becomes inf.
        _, count = _series_plan(a, b, z[todo], force=True)
        val, _ = _series_block(a, b, z[todo], count, force=True)
        out[todo] = val
        todo &= False

    return out


def _narrow(keep: np.ndarray, *rows) -> tuple:
    """Each row at the entries where keep holds; the rows themselves,
    uncopied, where it holds everywhere."""
    if keep.all():
        return rows
    return tuple(row[keep] for row in rows)


# ---------------------------------------------------------------------------
# closed forms


def _ml_alpha_one(b: float, z: np.ndarray) -> np.ndarray:
    if abs(b - 1.0) < 1e-14:
        with np.errstate(over="ignore"):
            return np.exp(z)
    if abs(b - 2.0) < 1e-14:
        with np.errstate(over="ignore"):
            return np.expm1(z) / z
    if b <= 0.0 and b == math.floor(b):
        # E_{1,-m}(z) = z^{m+1} e^z: the terms k <= m of the series
        # vanish with 1/Gamma(k - m).  The recurrence below would cancel
        # at large |z|.  Where e^z underflows the value is 0.
        with np.errstate(over="ignore"):
            e = np.exp(z)
            return np.multiply(z ** (1 - int(b)), e, out=np.zeros_like(z),
                               where=e != 0.0)

    # Shift beta upward until the confluent-hypergeometric route is
    # comfortably inside its domain, then unwind the recurrence
    # E_{1,b}(z) = z E_{1,b+1}(z) + 1/Gamma(b).
    shifts = []
    bb = b
    while bb <= 0.25:
        shifts.append(bb)
        bb += 1.0

    val = np.empty_like(z)
    near = z >= -40.0
    if near.any():
        with np.errstate(over="ignore"):
            val[near] = _rgamma1(bb) * _special.hyp1f1_one(bb, z[near])
    far = ~near
    if far.any():
        # Optimally truncated algebraic expansion; the exponentially
        # small e^z correction is below 1e-14 relative for z < -40.
        v, ok = _asymp_block(1.0, bb, z[far])
        if not bool(np.all(ok)):
            raise NumericError("alpha=1 asymptotic branch failed to converge")
        val[far] = v

    for bs in reversed(shifts):
        val = z * val + _rgamma1(bs)
    return val


def _ml_alpha_two_int(bint: int, z: np.ndarray) -> np.ndarray:
    neg = z < 0.0
    x = np.abs(z)
    rt = np.sqrt(x)
    # rt is off sqrt(x) by d = (x - rt^2) / (2 rt), up to half an ulp,
    # which moves cos(rt) by 5e-12 of 1/|z| near its zeros at |z| ~ 3000;
    # x - rt^2 is exact with rt split into 26-bit halves (Dekker)
    c = 134217729.0 * rt
    hi = c - (c - rt)
    lo = rt - hi
    d = (((x - hi * hi) - 2.0 * hi * lo) - lo * lo) / (2.0 * rt)
    cos, sin = np.cos(rt), np.sin(rt)
    with np.errstate(over="ignore"):  # cosh of the negative axis' roots
        e1 = np.where(neg, cos - d * sin, np.cosh(rt))
        e2 = np.where(neg, (sin + d * cos) / rt, np.sinh(rt) / rt)
    if bint == 1:
        return e1
    if bint == 2:
        return e2
    # Walk the two-step recurrence E_{2,m}(z) = (E_{2,m-2}(z) - 1/Gamma(m-2))/z
    # up from the trigonometric base pair.
    val = e1 if bint % 2 == 1 else e2
    m = 1 if bint % 2 == 1 else 2
    while m < bint:
        val = (val - _rgamma1(float(m))) / z
        m += 2
    return val


# ---------------------------------------------------------------------------
# power series


def _series_gate(ln_max, x, neg):
    """The series gate on a point's largest term, ln_max in logs: that
    cancellation leave the target's digits on the negative axis (neg)
    and that the sum stay in float64 range; x = |z|."""
    lost = ln_max + np.log1p(x) + 5.0
    return np.where(neg, (ln_max < 600.0) & (lost <= _SERIES_LOST),
                    ln_max < 650.0)


@lru_cache(maxsize=256)
def _series_first(a: float, b: float) -> tuple:
    """The first term k whose b + a k is not a pole of Gamma, and
    lnGamma(b + a k).  At k = 0 also the moduli below which and past
    which the gate on the first term surely passes and fails on the
    negative axis: there it reads log1p(|z|) <= T with T constant, and
    the moduli sit 1e-9 relative either side of expm1(T), which moves
    log1p by far more than its rounding (T >= 3.6 here, as
    lnGamma >= -0.13)."""
    k = 0
    while b + a * k <= 0.0 and (b + a * k) % 1.0 == 0.0:
        k += 1
    lg = _gammaln1(b + a * k)
    if 0.0 - lg >= 600.0:
        return k, lg, -1.0, -1.0
    with np.errstate(over="ignore"):
        edge = float(np.expm1(_SERIES_LOST - 5.0 + lg))
    return k, lg, edge * (1.0 - 1e-9), edge * (1.0 + 1e-9)


def _series_hopeful(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """The series gate on each point's first non-zero term, k ln|z| -
    lnGamma(b + a k).  A point's largest term is at least its first, so
    where this fails _series_plan refuses the point too, and the point
    needs no plan.  At k = 0 the gate is evaluated only between the
    moduli of _series_first."""
    k, lg, sure, never = _series_first(a, b)
    x = np.abs(z)
    neg = z < 0.0
    if k:
        with np.errstate(divide="ignore"):
            return _series_gate(k * np.log(x) - lg, x, neg)
    hope = np.where(neg, x <= sure, 0.0 - lg < 650.0)
    near = np.flatnonzero(neg & (x > sure) & (x < never))
    if near.size:
        hope[near] = _series_gate(0.0 - lg, x[near], True)
    return hope


def _series_plan(a: float, b: float, z: np.ndarray, force: bool = False):
    """Plan each point's ascending series before any term is summed.

    Returns the gate and each point's term count N (0 where the gate
    fails, unless ``force``).  Both rest on the point's largest term,
    the larger of the first non-zero term, 1/Gamma(b) unless b is a
    pole, and the term at the hump index n* = (|z|^{1/a} - b)/a,
    where the term ratio |z|/(b + a n)^a falls through 1.  N is where
    the log term n ln|z| - lnGamma(b + a n) falls ln(eps/4) below the
    largest term, from two Newton steps in y = b + a n on Stirling's
    form of lnGamma without its 1/(12y) correction.  That form never
    exceeds lnGamma, so its crossing is at or past the true one, and
    it is concave in y; started where it falls by at least 1 per unit
    of y, each step lands at or past its crossing, so N is never short.
    The gate is _series_gate; the series block measures both of its
    conditions again.  The Newton steps run in preallocated rows.
    """
    x = np.abs(z)
    lnx = np.log(x)
    k, lg_first, _, _ = _series_first(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        r = x ** (1.0 / a)
        nstar = np.maximum((r - b) / a, 0.0)
        first = k * lnx - lg_first
        # the points with n* = 0 share lnGamma(b)
        lg = np.full(z.shape, _gammaln1(b))
        hump = nstar > 0.0
        if hump.any():
            lg[hump] = _special.gammaln(b + a * nstar[hump])
        ln_max = np.maximum(nstar * lnx - lg, first)
    ln_max = np.where(np.isnan(ln_max), np.inf, ln_max)
    safe = _series_gate(ln_max, x, z < 0.0)
    count = np.zeros(z.shape, dtype=np.int64)
    sub = slice(None) if force or safe.all() else np.flatnonzero(safe)
    if force or safe.any():
        lnx, r, ln_max = lnx[sub], r[sub], ln_max[sub]
        lr = lnx / a
        target = ln_max + math.log(0.25 * _EPS)
        y = np.maximum(max(b, 1.0), math.exp(1.5) * r)
        ly, g, w = np.empty_like(y), np.empty_like(y), np.empty_like(y)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(2):
                # y - (g - target) / (lr - ly + 0.5 / y), g the log term
                # ((y - b) / a) lnx - ((y - 0.5) ly - y + ln(2 pi) / 2)
                np.log(y, out=ly)
                np.subtract(y, b, out=g)
                np.divide(g, a, out=g)
                np.multiply(g, lnx, out=g)
                np.subtract(y, 0.5, out=w)
                np.multiply(w, ly, out=w)
                np.subtract(w, y, out=w)
                np.add(w, _HALF_LN_2PI, out=w)
                np.subtract(g, w, out=g)
                np.subtract(g, target, out=g)
                np.subtract(lr, ly, out=ly)
                np.divide(0.5, y, out=w)
                np.add(ly, w, out=ly)
                np.divide(g, ly, out=g)
                np.subtract(y, g, out=y)
                np.maximum(y, max(b, 1e-300), out=y)
            n = np.maximum(np.ceil((y - b) / a), 1.0)
        count[sub] = np.where(n <= _SERIES_TERMS, n, _SERIES_TERMS + 1.0)
    if force:
        return safe, np.minimum(count, _SERIES_TERMS)
    safe &= count <= _SERIES_TERMS
    return safe, np.where(safe, count, 0)


@lru_cache(maxsize=256)
def _series_coefs(a: float, b: float, size: int) -> np.ndarray:
    """1/Gamma(b + a n) for n = 0..size-1, at the exact value of b + a n.

    b + a n is split into hi + lo without rounding (Dekker's product,
    the integer n having at most 26 bits, then TwoSum), and the
    coefficient is 1/Gamma(hi) + lo (1/Gamma)'(hi) with
    (1/Gamma)' = -psi/Gamma, which is (-1)^k k! at the pole -k.  Taking
    1/Gamma at the rounded b + a n instead puts up to 190 ulp of error
    in a term at b = 9, since x psi(x) amplifies the rounding.
    """
    n = np.arange(size, dtype=float)
    p = a * n
    c = 134217729.0 * a
    ah = c - (c - a)
    hi = p + b
    bb = hi - p
    lo = ((p - (hi - bb)) + (b - bb)) + ((ah * n - p) + (a - ah) * n)
    rg = _special.rgamma(hi)
    with np.errstate(invalid="ignore"):
        drg = -_special.psi(hi) * rg
    pole = (hi <= 0.0) & (hi == np.round(hi))
    if pole.any():
        k = -hi[pole]
        drg[pole] = np.where(k % 2.0 == 1.0, -1.0, 1.0) * _special.gamma(k + 1.0)
    coef = rg + lo * drg
    coef.setflags(write=False)
    return coef


def _series_block(a: float, b: float, z: np.ndarray, count,
                  force: bool = False):
    """Ascending series of every point to its own term count N.

    The points are sorted by count, so the points still summing at term
    n are a prefix of the sorted arrays.  The terms are taken in tiles
    of K terms by those points, K = _TILE_CELLS // points clamped to
    [1, _TILE_TERMS]: a tile wider than it is tall runs one term at a
    time, a taller one runs ufunc.accumulate down its terms.  Each
    point keeps its running sum s and the running sum of the TwoSum
    errors of s (Sum2 of Ogita, Rump and Oishi, SIAM J. Sci. Comput.
    26, 2005), both in term order; a point's terms past N are zero and
    move neither, so no value depends on the tiles or on the other
    points.  A point is accepted when its term N is at most
    0.125 _RTOL |s|, its largest term times 8 eps is at most _RTOL |s|
    (cancellation), and s is finite.
    """
    order = np.argsort(-count)
    zs, cnt = z[order], count[order]
    nmax = int(cnt[0]) if cnt.size else 0
    # live[n]: the points whose count reaches n, a prefix of the arrays
    live = np.zeros(nmax + 2, dtype=np.int64)
    live[:-1] = np.cumsum(np.bincount(cnt, minlength=nmax + 1)[::-1])[::-1]
    live = live.tolist()
    coef = _series_coefs(a, b, 1 << max(6, nmax.bit_length()))
    s = np.full(zs.shape, coef[0])
    e = np.zeros_like(s)
    p = np.ones_like(s)
    big = np.abs(s)
    last = np.zeros_like(s)
    # work rows of the one-term steps: the next running sum (the two
    # sum rows swap roles every term), the term, and two scratch rows
    s_next = s.copy()
    t_row, b_row, w_row = (np.empty_like(s) for _ in range(3))
    n, mv = 1, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while n <= nmax:
            m = live[n]
            k = min(max(_TILE_CELLS // m, 1), _TILE_TERMS, nmax + 1 - n)
            if k < m:
                for i in range(n, n + k):
                    if live[i] != mv:  # views of the rows, per prefix
                        m = mv = live[i]
                        pm, zm, em, bm = p[:m], zs[:m], e[:m], big[:m]
                        sm, sn = s[:m], s_next[:m]
                        t, bb, w = t_row[:m], b_row[:m], w_row[:m]
                    # Sum2 step: sn = sm + t and its TwoSum error
                    # (sm - (sn - bb)) + (t - bb), bb = sn - sm, into e
                    np.multiply(pm, zm, out=pm)
                    np.multiply(pm, coef[i], out=t)
                    np.add(sm, t, out=sn)
                    np.subtract(sn, sm, out=bb)
                    np.subtract(sn, bb, out=w)
                    np.subtract(sm, w, out=w)
                    np.subtract(t, bb, out=bb)
                    np.add(w, bb, out=w)
                    np.add(em, w, out=em)
                    np.abs(t, out=w)
                    np.maximum(bm, w, out=bm)
                    j = live[i + 1]
                    if j < m:
                        # the points that stop here keep their sum in
                        # both rows
                        last[j:m] = t[j:]
                        sm[j:] = sn[j:]
                    s, s_next, sm, sn = s_next, s, sn, sm
            else:
                zm = zs[:m]
                pt = np.empty((k, m))
                pt[0] = p[:m] * zm
                pt[1:] = zm
                np.multiply.accumulate(pt, axis=0, out=pt)
                t = pt * coef[n:n + k, None]
                t[np.arange(n, n + k)[:, None] > cnt[:m]] = 0.0
                st = np.empty((k + 1, m))
                st[0] = s[:m]
                st[1:] = t
                np.add.accumulate(st, axis=0, out=st)
                bb = st[1:] - st[:-1]
                et = np.empty_like(st)
                et[0] = e[:m]
                et[1:] = (st[:-1] - (st[1:] - bb)) + (t - bb)
                np.add.accumulate(et, axis=0, out=et)
                # both sum rows, as the one-term steps that may follow
                # swap them, and the points that stopped here keep theirs
                p[:m], e[:m] = pt[-1], et[-1]
                s[:m] = s_next[:m] = st[-1]
                np.maximum(big[:m], np.abs(t).max(axis=0), out=big[:m])
                j = live[n + k]
                if j < m:
                    last[j:m] = t[cnt[j:m] - n, np.arange(j, m)]
            n += k
        s += e
        mag = np.maximum(np.abs(s), 1e-300)
        ok = ((np.abs(last) <= 0.125 * _RTOL * mag)
              & (big * (_EPS * 8.0) <= _RTOL * mag) & np.isfinite(s))
    if force:
        # Positive-axis fallback: an overflowed sum means the value
        # itself exceeds float64 range.
        s = np.where(np.isfinite(s), s, np.inf)
    val = np.empty_like(s)
    val[order] = s
    acc = np.empty_like(ok)
    acc[order] = ok
    return val, acc


# ---------------------------------------------------------------------------
# asymptotic expansion


def _ml_residue(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """Exponential contribution of the Hankel-contour poles.

    For z < 0 and alpha in (1, 2] the conjugate pole pair contributes
    (2/a) r^{1-b} e^{r cos(pi/a)} cos(r sin(pi/a) + (1-b) pi/a) with
    r = |z|^{1/a}; for z > 0 the single real pole contributes
    (1/a) z^{(1-b)/a} e^{z^{1/a}}.
    """
    out = np.zeros_like(z)
    with np.errstate(over="ignore", invalid="ignore"):
        pos = z > 0.0
        if pos.any():
            r = z[pos] ** (1.0 / a)
            v = (r ** (1.0 - b)) * np.exp(np.minimum(r, 745.0)) / a
            # past exp's range the product is inf or nan; logs keep the
            # values that r^(1-b) brings back into range
            big = ~np.isfinite(v)
            v[big] = np.exp(r[big] + (1.0 - b) * np.log(r[big]) - math.log(a))
            out[pos] = v
        if a > 1.0:
            neg = z < 0.0
            if neg.any():
                r = (-z[neg]) ** (1.0 / a)
                ang = math.pi / a
                out[neg] = (2.0 / a) * r ** (1.0 - b) * np.exp(r * math.cos(ang)) \
                    * np.cos(r * math.sin(ang) + (1.0 - b) * ang)
    return out


@lru_cache(maxsize=256)
def _asymp_coefs(a: float, b: float) -> tuple:
    """Per term n = 1.._ASYMP_TERMS of the asymptotic sum: the smooth
    envelope of the coefficient (see _asymp_block) and the coefficient
    1/Gamma(b - a n)."""
    x = b - a * np.arange(1.0, _ASYMP_TERMS + 1)
    rg = _special.rgamma(x)
    with np.errstate(over="ignore"):
        renv = np.where(x >= 0.5, np.abs(rg),
                        np.exp(_special.gammaln(1.0 - x)) / math.pi)
    renv.setflags(write=False)
    rg.setflags(write=False)
    return renv, rg


@lru_cache(maxsize=256)
def _asymp_stops(a: float, b: float):
    """Stop thresholds of the asymptotic sum's envelope, or None.

    With L = ln|z|, the envelope renv_j |z|^-j of term j reaches that of
    an earlier term m exactly when the mean of the steps
    d_i = ln renv_i - ln renv_{i-1} over m < i <= j is at least L.  A
    mean never exceeds its largest step, and every step is such a mean,
    so the stop rule of _asymp_block stops a point at the first term j
    where the running maximum of d reaches L.  Returns, indexed by the
    count k of terms before the stop: that running maximum (the stop's
    threshold, inf past the last term), ln renv_k (inf at k = 0) and the
    coefficients of u^{m+1} and u^{m+2} in the bound S of _asymp_hopeful,
    where term m is the first whose coefficient 1/Gamma(b - a m) is not
    0; then |1/Gamma(b - a m)|, the coefficient of u^m, the power m
    itself, and the modulus past which _asymp_hopeful refuses no point.
    None when an envelope underflows to 0, which this form cannot take,
    or no coefficient is non-zero.
    """
    renv, rg = _asymp_coefs(a, b)
    lead = np.flatnonzero(rg)
    if not (np.all(renv > 0.0) and lead.size):
        return None
    i0 = int(lead[0])  # 1/Gamma(b - a) = 0 at a = b, for one
    lr = np.log(renv)  # inf where Gamma(1 - x) overflows
    with np.errstate(invalid="ignore"):
        step = np.concatenate([[-np.inf], np.diff(lr)])
    top = np.flatnonzero(np.isinf(lr))
    if top.size:  # an infinite envelope always stops the point
        step[top[0]:] = np.inf
    stops = np.maximum.accumulate(step)
    c1 = abs(float(rg[i0]))
    j = np.arange(renv.size) - i0
    # past L_j a point sums at least j terms, and its envelope j is at
    # most _RTOL times its first non-zero term
    with np.errstate(invalid="ignore"):
        lj = np.maximum(stops[i0 + 1:] + _ASYMP_ETA,
                        (lr[i0 + 1:] - math.log(c1) - math.log(_RTOL))
                        / j[i0 + 1:])
    far = np.where(np.isnan(lj), np.inf, lj).min()
    with np.errstate(over="ignore"):
        far = math.inf if far > 709.0 else math.exp(far) * (1.0 + 1e-9)
    k = np.arange(renv.size + 1) - i0
    plan = (np.append(stops, np.inf), np.append(np.inf, lr),
            np.where(k >= 2, abs(rg[i0 + 1]), 0.0),
            np.maximum(k - 2, 0) * renv[i0 + 2])
    for arr in plan:
        arr.setflags(write=False)
    return plan + (c1, i0 + 1, far)


def _asymp_hopeful(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """False where _asymp_block provably rejects a point, from |z| alone.

    A point z < 0 with |z| <= 1 is never accepted.  Past that, take
    L = ln|z| and the thresholds of _asymp_stops, and let term k + 1 be
    the first whose threshold is at or above L - _ASYMP_ETA (k =
    _ASYMP_TERMS if none is).  When that threshold is also at or above
    L + _ASYMP_ETA, envelopes 1..k each fall below every earlier one by
    a factor of at least e^-_ASYMP_ETA and envelope k + 1 reaches an
    earlier one by that factor.  The block's float envelopes are off by
    under 200 eps relative, so it stops the point after k terms too, or
    earlier with an accept.  Its error estimate is then at least
    E = renv_k |z|^-k, and its partial sum holds at most k terms
    t_j = |z^-j / Gamma(b - a j)| <= renv_j |z|^-j, which fall and are
    exactly 0 before term m, the first with a non-zero coefficient, so
    |s| <= S = t_m + t_{m+1} + (k - m - 1) env_{m+2}.  The residues
    are at most R = (2/a) r^{1-b} e^{r cos(pi/a)} with r = |z|^{1/a} (0
    for a <= 1).  The block accepts only if
    E <= _RTOL max(|res - s|, 1e-300), and
    |res - s| <= S + R, so a point is refused only if
    E (1 - _ASYMP_SLACK) > _RTOL max((S + R)(1 + _ASYMP_SLACK), 1e-300).
    E, S and R here are within 1e-10 relative of their float values in
    the block, far inside the slack, so a point the block accepts is
    never refused.  Points with a threshold within _ASYMP_ETA of L, on
    the positive axis, or at an (a, b) without thresholds are kept.

    Refusal needs E > _RTOL S >= _RTOL t_m.  k grows with L, and past
    the modulus of _asymp_stops some j <= k has env_j <= _RTOL t_m, so
    E <= env_j rules it out: those points, all of the asymptotic
    regime's bulk, cost two comparisons.
    """
    hope = (z < -1.0) | (z >= 0.0)
    plan = _asymp_stops(a, b)
    if plan is None:
        return hope
    stops, lr, c2, c3, c1, lead, far = plan
    idx = np.flatnonzero((z < -1.0) & (z >= -far))
    if not idx.size:
        return hope
    u = -1.0 / z[idx]
    L = np.log(-z[idx])
    k = np.searchsorted(stops, L - _ASYMP_ETA)
    refuse = stops[k] >= L + _ASYMP_ETA
    tol = _RTOL * (1.0 + _ASYMP_SLACK)
    with np.errstate(over="ignore", invalid="ignore"):
        env = np.exp(lr[k] - k * L) * (1.0 - _ASYMP_SLACK)
        bound = tol * u ** lead * (c1 + u * (c2[k] + u * c3[k]))
        refuse &= env > np.maximum(bound, _RTOL * 1e-300)
        if a > 1.0 and refuse.any():
            # the residues only raise the bound, so only the points
            # refused on S alone need them
            sel = np.flatnonzero(refuse)
            ln_r = L[sel] / a
            res = (2.0 / a) * np.exp((1.0 - b) * ln_r
                                     + np.exp(ln_r) * math.cos(math.pi / a))
            bound = bound[sel] + tol * res
            refuse[sel] = env[sel] > np.maximum(bound, _RTOL * 1e-300)
    hope[idx[refuse]] = False
    return hope


def _asymp_block(a: float, b: float, z: np.ndarray):
    """E ~ residues - sum_{n>=1} z^{-n}/Gamma(b - a n), optimally truncated.

    Truncation control uses a smooth envelope of the coefficient size,
    |1/Gamma(x)| <= Gamma(1-x)/pi for x < 1/2 by reflection, instead of
    the raw term magnitudes: the sine factor zeroes whole terms whenever
    b - a n lands on a nonpositive integer (and rounds them to ~1e-15
    noise nearby), which would otherwise fake an early series dip and
    truncate the divergent tail far from its true minimum.  A point
    stops at the first term whose envelope does not fall below the
    smallest one so far; that smallest envelope is its error estimate.

    A point also stops once its envelope is below both 2^-55 |s| and
    _RTOL |residues - s|: the envelope keeps falling while the point
    runs, so every later term is below half an ulp of the partial sum s
    and cannot move it, and the error estimate already passes.  Value
    and accept flag are therefore those of running every point to its
    envelope minimum.

    The points still running are summed in the tiles of _series_block:
    a tile wider than it is tall runs one term at a time and drops each
    point at its stop, a taller one runs ufunc.accumulate down its
    terms (powers, partial sums, running minimum of the envelope) and
    finds each point's first stop in it.  Both take the very operations
    of the term-by-term loop in its order.
    """
    nmax = _ASYMP_TERMS
    renv, rg = _asymp_coefs(a, b)
    res = _ml_residue(a, b, z)
    s = np.zeros_like(z)
    minenv = np.full(z.shape, np.inf)
    idx = np.flatnonzero(np.abs(z) > 1.0)  # |z| <= 1 never converges here
    zi = 1.0 / z[idx]
    p = np.ones_like(zi)
    sl = np.zeros_like(zi)
    me = np.full(zi.shape, np.inf)
    rl = res[idx]
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while idx.size and n < nmax:
            m = idx.size
            k = min(max(_TILE_CELLS // m, 1), _TILE_TERMS, nmax - n)
            if k < m:
                for i in range(n, n + k):
                    p = p * zi
                    env = np.abs(p) * renv[i]
                    grew = env >= me
                    snew = sl + p * rg[i]
                    done = env < _ULP_FLOOR * np.abs(snew)
                    if done.any():
                        done &= env <= _RTOL * np.maximum(np.abs(rl - snew),
                                                          1e-300)
                    out = grew | done
                    if out.any():
                        s[idx[out]] = np.where(grew, sl, snew)[out]
                        minenv[idx[out]] = np.where(grew, me, env)[out]
                        keep = ~out
                        idx, zi, p, rl = idx[keep], zi[keep], p[keep], rl[keep]
                        snew, me, env = snew[keep], me[keep], env[keep]
                    sl = snew
                    me = np.minimum(me, env)
                    if not idx.size:
                        break
            else:
                pt = np.empty((k, m))
                pt[0] = p * zi
                pt[1:] = zi
                np.multiply.accumulate(pt, axis=0, out=pt)
                env = np.abs(pt) * renv[n:n + k, None]
                # me[j]: the smallest envelope before term j
                me = np.concatenate([me[None], env])
                np.minimum.accumulate(me, axis=0, out=me)
                st = np.empty((k + 1, m))
                st[0] = sl
                st[1:] = pt * rg[n:n + k, None]
                np.add.accumulate(st, axis=0, out=st)
                grew = env >= me[:-1]
                done = ((env < _ULP_FLOOR * np.abs(st[1:]))
                        & (env <= _RTOL * np.maximum(np.abs(rl - st[1:]),
                                                     1e-300)))
                out = grew | done
                stop = out.any(axis=0)
                if stop.any():
                    j = np.flatnonzero(stop)
                    i = out[:, j].argmax(axis=0)
                    g = grew[i, j]
                    s[idx[j]] = np.where(g, st[i, j], st[i + 1, j])
                    minenv[idx[j]] = np.where(g, me[i, j], env[i, j])
                keep = ~stop
                idx, zi, rl = idx[keep], zi[keep], rl[keep]
                p, sl, me = pt[-1, keep], st[-1, keep], me[-1, keep]
            n += k
    s[idx] = sl
    minenv[idx] = me
    err = np.where(np.isfinite(minenv), minenv, np.inf)
    total = res - s
    with np.errstate(invalid="ignore"):
        ok = err <= _RTOL * np.maximum(np.abs(total), 1e-300)
    ok |= ~np.isfinite(total) & (z > 0.0)  # inf on the positive axis is final
    return total, ok


# ---------------------------------------------------------------------------
# contour quadrature


@lru_cache(maxsize=256)
def _contour_rule(a: float, b: float, eps: float, residues: bool) -> tuple:
    """One Hankel-contour rule for E_{a,b} on the negative axis.

    The contour is the arc |s| = eps, |arg s| <= phi, and the rays
    arg s = +-phi out to |e^s| = e^-40 (Gorenflo, Loutchko and Luchko,
    FCAA 5, 2002).  phi lies at least pi/8 from the pole pair of
    1/(s^a - z) at arg s = +-pi/a: beyond it when ``residues`` is set
    (the caller adds the pair's residues), short of it otherwise.  By
    conjugate symmetry E = sum_i Im(A_i / (B_i - z)) over the upper
    half, with A_i = w_i s'_i e^{s_i} s_i^{a-b} / pi and B_i = s_i^a,
    the powers taken as r^p e^{i p theta}.  The rule is the read-only
    arrays P = Im A Re B - Re A Im B, Q = Im A, Re B and (Im B)^2, so a
    point costs (P - Q z) / ((Re B - z)^2 + (Im B)^2) per node.
    """
    pole = math.pi / a
    if residues:
        phi = 0.5 * (pole + math.pi)
    else:
        phi = 0.5 * (0.5 * math.pi + min(pole, math.pi))
    # ray panels grow by 1.5x away from the arc, up to a length of 4
    end = eps + 40.0 / abs(math.cos(phi))
    edges = [eps]
    while edges[-1] < end:
        edges.append(min(edges[-1] + min(0.5 * edges[-1], 4.0), end))
    lo, span = np.array(edges[:-1])[:, None], np.diff(edges)[:, None]
    arc, ray = gauss_legendre_rule(_ARC_NODES), gauss_legendre_rule(_RAY_NODES)
    # arc: s = eps e^{i theta}, ds = i s dtheta; ray: ds = e^{i phi} dr
    nray = lo.size * _RAY_NODES
    r = np.concatenate([np.full(_ARC_NODES, eps), (lo + span * ray.nodes).ravel()])
    ang = np.concatenate([phi * arc.nodes, np.full(nray, phi)])
    w = np.concatenate([phi * eps * arc.weights, (span * ray.weights).ravel()])
    turn = np.concatenate([np.full(_ARC_NODES, 0.5 * math.pi), np.zeros(nray)])
    mag = w * np.exp(r * np.cos(ang)) * r ** (a - b) / math.pi
    arg = r * np.sin(ang) + (1.0 + a - b) * ang + turn
    are, aim = mag * np.cos(arg), mag * np.sin(arg)
    bre, bim = r ** a * np.cos(a * ang), r ** a * np.sin(a * ang)
    rule = (aim * bre - are * bim, aim, bre, bim * bim)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _contour_block(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """E_{a,b}(z) for z < 0 on the contour of _contour_rule.

    For a >= 4/3 the rays pass beyond the pole pair and its residues are
    added, so the arc must stay inside the pair: each point takes the
    largest power of 2 at most half its pole modulus |z|^{1/a}, capped
    at 1, and each such rung has its own rule.  Otherwise the pair is
    enclosed wherever it lies, and the arc is the unit circle.
    """
    residues = math.pi / a <= 0.75 * math.pi
    eps = np.ones_like(z)
    if residues:
        _, e = np.frexp(0.5 * (-z) ** (1.0 / a))
        eps = np.minimum(np.ldexp(1.0, e - 1), 1.0)
    out = np.empty_like(z)
    for rung in sorted(set(eps.tolist())):
        idx = np.flatnonzero(eps == rung)
        p, q, bre, bim2 = _contour_rule(a, b, float(rung), residues)
        rows = min(max(_CONTOUR_CELLS // p.size, 1), idx.size)
        num, den = np.empty((rows, p.size)), np.empty((rows, p.size))
        for lo in range(0, idx.size, rows):
            sel = idx[lo:lo + rows]
            zc = z[sel][:, None]
            nu, de = num[:sel.size], den[:sel.size]
            # (p - q z) / ((bre - z)^2 + bim2), one row per point
            np.multiply(q, zc, out=nu)
            np.subtract(p, nu, out=nu)
            np.subtract(bre, zc, out=de)
            np.multiply(de, de, out=de)
            np.add(de, bim2, out=de)
            np.divide(nu, de, out=nu)
            out[sel] = nu.sum(axis=1)
    if residues:
        out += _ml_residue(a, b, z)
    return out
