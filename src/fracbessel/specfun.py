"""Gamma, Bessel J0/J1/J2, and a two-parameter Mittag-Leffler function.

The Mittag-Leffler evaluator is the workhorse of the package.  Every
time kernel on either side of t = 0 reduces to E_{alpha,beta} on the
negative real axis, at arguments running from 0 down to about
-lambda_N^2 T^2 with lambda_N in the hundreds, and no single expansion
covers that range in float64.  The evaluator therefore runs an
accuracy-tracked cascade:

* ascending power series with compensated summation, attempted only
  where a cheap estimate of the largest term says cancellation cannot
  eat the requested digits, and accepted only after the measured
  largest term confirms it;
* the algebraic asymptotic expansion with optimal truncation, plus the
  exponential residue pair that appears for alpha > 1, accepted when
  the first omitted term is small enough;
* a Hankel-contour quadrature for the band in between, where neither
  expansion reaches tolerance: one fixed rule per (alpha, beta) on an
  arc and two rays turned at least pi/8 away from the pole pair, plus
  the pair's residues when the rays pass beyond it.

The nominal regime boundaries (|z| around 5 and 50) are useful mental
markers but carry no authority; the handoff is decided per point by
the error tracking above.

Every value depends on its own (alpha, beta, z) only: never on the
other points of a call, their order or the chunk they fall in.
Callers may therefore batch freely, and the solver evaluates each
kernel for all modes in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

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
# points per block of the contour sum, which bounds its (points x nodes)
# temporaries; each point's sum is its own row, so blocks never change it
_CONTOUR_ROWS = 512


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
    out = _sp.rgamma(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def bessel_j(order: int, x):
    """Bessel function J_nu for nu in {0, 1, 2} and x >= 0.

    Parameters
    ----------
    order : int
        0, 1 or 2.  Nothing else is needed for a zero-order
        Fourier-Bessel expansion and its first two derivatives.
    x : float or ndarray
        Non-negative argument(s).

    Returns
    -------
    float or ndarray
        J_order(x), scalar in, scalar out.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"bessel_j supports orders 0, 1, 2; got {order!r}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("bessel_j requires x >= 0")
    if order == 0:
        val = _sp.j0(arr)
    elif order == 1:
        val = _sp.j1(arr)
    else:
        val = _sp.jn(2, arr)
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
    """
    if not isinstance(p, MLParams):
        raise TypeError("first argument must be an MLParams instance")
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("mittag_leffler requires finite z")
    flat = np.atleast_1d(arr).ravel()
    # Batched callers feed heavily repeated grids (convolution panels
    # are aligned across modes and time points), so evaluate each
    # distinct argument once.
    uniq, inv = np.unique(flat, return_inverse=True)
    vals = np.empty_like(uniq)
    # Chunk large batches so the series work arrays stay cache-sized.
    for lo in range(0, uniq.size, 4096):
        sl = slice(lo, min(lo + 4096, uniq.size))
        vals[sl] = _ml_core(p.alpha, p.beta, uniq[sl].copy())
    out = vals[inv]
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
        out[zero] = _sp.rgamma(b)
        todo &= ~zero

    if a == 1.0:
        if todo.any():
            out[todo] = _ml_alpha_one(b, z[todo])
        return out

    if a == 2.0 and abs(b - round(b)) < 1e-12 and 1 <= round(b) <= 9:
        # Closed trigonometric forms.  Their recurrence in b loses a
        # factor of about (m-1)(m-2)/|z| at its step to E_{2,m}, so they
        # hold only once |z| is not small against b (4.6e-11 at b = 9,
        # z = -0.5, where the cascade gives 6e-17).
        bint = int(round(b))
        m = todo & (np.abs(z) >= max(0.5, bint - 1.0))
        if m.any():
            out[m] = _ml_alpha_two_int(bint, z[m])
            todo &= ~m

    if todo.any():
        safe, nmax = _series_safety(a, b, z)
        m = todo & safe
        if m.any():
            val, ok = _series_block(a, b, z[m], nmax[m])
            idx = np.flatnonzero(m)
            out[idx[ok]] = val[ok]
            todo[idx[ok]] = False

    if todo.any():
        val, ok = _asymp_block(a, b, z[todo])
        idx = np.flatnonzero(todo)
        out[idx[ok]] = val[ok]
        todo[idx[ok]] = False

    m = todo & (z < 0.0)
    if m.any():
        out[m] = _contour_block(a, b, z[m])
        todo &= ~m

    if todo.any():
        # Positive arguments that dodged both expansions: force the
        # series with a generous term budget; overflow becomes inf.
        val, _ = _series_block(a, b, z[todo], 16384, force=True)
        out[todo] = val
        todo &= False

    return out


# ---------------------------------------------------------------------------
# closed forms


def _ml_alpha_one(b: float, z: np.ndarray) -> np.ndarray:
    if abs(b - 1.0) < 1e-14:
        with np.errstate(over="ignore"):
            return np.exp(z)
    if abs(b - 2.0) < 1e-14:
        with np.errstate(over="ignore"):
            return np.expm1(z) / z

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
            val[near] = _sp.rgamma(bb) * _sp.hyp1f1(1.0, bb, z[near])
    far = ~near
    if far.any():
        # Optimally truncated algebraic expansion; the exponentially
        # small e^z correction is below 1e-14 relative for z < -40.
        v, ok = _asymp_block(1.0, bb, z[far])
        if not bool(np.all(ok)):
            raise NumericError("alpha=1 asymptotic branch failed to converge")
        val[far] = v

    for bs in reversed(shifts):
        val = z * val + _sp.rgamma(bs)
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
    e1 = np.where(neg, cos - d * sin, np.cosh(np.minimum(rt, 710.0)))
    e2 = np.where(neg, (sin + d * cos) / rt,
                  np.sinh(np.minimum(rt, 710.0)) / rt)
    if bint == 1:
        return e1
    if bint == 2:
        return e2
    # Walk the two-step recurrence E_{2,m}(z) = (E_{2,m-2}(z) - 1/Gamma(m-2))/z
    # up from the trigonometric base pair.
    val = e1 if bint % 2 == 1 else e2
    m = 1 if bint % 2 == 1 else 2
    while m < bint:
        val = (val - _sp.rgamma(float(m))) / z
        m += 2
    return val


# ---------------------------------------------------------------------------
# power series


def _series_safety(a: float, b: float, z: np.ndarray):
    """Predict where the ascending series can reach _RTOL in float64.

    Returns a boolean mask and each point's term budget, 1.6 times its
    stationary index plus 48.  The prediction relies
    on the largest-term magnitude max_n |z|^n / Gamma(b + a n), whose
    logarithm is evaluated at the stationary index.  Failures of the
    prediction are harmless: the series block re-measures cancellation
    and reports failure, handing the point to the next regime.
    """
    x = np.abs(z)
    with np.errstate(over="ignore", invalid="ignore"):
        top = x ** (1.0 / a)
        nstar = np.maximum((top - b) / a, 0.0)
        ln_max = np.where(
            nstar > 0.0,
            nstar * np.log(np.maximum(x, 1e-300)) - _sp.gammaln(np.maximum(b + a * nstar, 1e-300)),
            0.0,
        )
        ln_max = np.where(np.isfinite(ln_max), ln_max, np.inf)
    digits_budget = -math.log10(_RTOL)
    lost = (ln_max + np.log1p(x) + 5.0) / math.log(10.0)
    safe_neg = (ln_max < 600.0) & (lost <= 15.8 - digits_budget)
    safe_pos = ln_max < 650.0
    safe = np.where(z < 0.0, safe_neg, safe_pos)
    nmax = np.minimum(1.6 * np.where(safe, nstar, 0.0) + 48.0,
                      16384.0).astype(int)
    return safe & (nstar <= 12000.0), nmax


def _series_block(a: float, b: float, z: np.ndarray, nmax,
                  force: bool = False):
    """Compensated ascending series with measured-cancellation gating.

    ``nmax`` is each point's term budget (one int serves every point).
    A point's sum is final at the pass where it converges, overflows or
    spends its budget: its compensation is then dropped, so the passes
    that the other points still make add exactly zero to it, and no
    value depends on the other points of the block.  Finished points
    leave the work arrays once they are half of them.
    """
    budget = np.broadcast_to(np.asarray(nmax), z.shape)
    s_out = np.empty(z.shape)
    max_out = np.empty(z.shape)
    conv_out = np.empty(z.shape, dtype=bool)
    idx = np.arange(z.size)
    zl = z
    s = np.full(z.shape, _sp.rgamma(b))
    comp = np.zeros_like(s)
    powz = np.ones_like(s)
    maxmag = np.abs(s)
    live = np.ones(z.shape, dtype=bool)
    converged = np.zeros(z.shape, dtype=bool)
    calm = np.zeros(z.shape, dtype=np.int8)
    hump = (np.abs(z) ** (1.0 / a) - b) / a
    spent = budget.min(initial=0)

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, int(budget.max(initial=0)) + 1):
            powz = powz * zl
            left = live & ~np.isfinite(powz)
            if left.any():
                live &= ~left
            t = np.where(live, powz * _sp.rgamma(b + a * n), 0.0)
            y = t - comp
            snew = s + y
            comp = (snew - s) - y
            s = snew
            at = np.abs(t)
            np.maximum(maxmag, at, out=maxmag)
            small = at <= 0.125 * _RTOL * np.maximum(np.abs(s), 1e-300)
            calm = np.where(live & small & (n > hump), calm + 1, 0)
            done = live & (calm >= 2)
            if done.any():
                converged |= done
                left |= done
            if n >= spent:
                left |= live & (n >= budget)
            if not left.any():
                continue
            live &= ~left
            nlive = int(np.count_nonzero(live))
            if not nlive:
                break
            comp = np.where(live, comp, 0.0)
            if 2 * nlive <= live.size:
                gone = idx[~live]
                s_out[gone] = s[~live]
                max_out[gone] = maxmag[~live]
                conv_out[gone] = converged[~live]
                (idx, zl, s, comp, powz, maxmag, converged, calm, hump,
                 budget) = (v[live] for v in (idx, zl, s, comp, powz, maxmag,
                                              converged, calm, hump, budget))
                live = np.ones(nlive, dtype=bool)
                spent = budget.min()

    s_out[idx], max_out[idx], conv_out[idx] = s, maxmag, converged
    s = s_out
    cancel_ok = max_out * (_EPS * 8.0) <= _RTOL * np.maximum(np.abs(s), 1e-300)
    ok = conv_out & cancel_ok & np.isfinite(s)
    if force:
        # Positive-axis fallback: an overflowed partial sum means the
        # value itself exceeds float64 range.
        s = np.where(np.isfinite(s), s, np.inf)
    return s, ok


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
            out[pos] = (r ** (1.0 - b)) * np.exp(np.minimum(r, 745.0)) / a
        if a > 1.0:
            neg = z < 0.0
            if neg.any():
                r = (-z[neg]) ** (1.0 / a)
                ang = math.pi / a
                out[neg] = (2.0 / a) * r ** (1.0 - b) * np.exp(r * math.cos(ang)) \
                    * np.cos(r * math.sin(ang) + (1.0 - b) * ang)
    return out


@lru_cache(maxsize=256)
def _asymp_coefs(a: float, b: float, nmax: int) -> tuple:
    """Per term n = 1..nmax of the asymptotic sum: the coefficient
    1/Gamma(b - a n) and its smooth envelope (see _asymp_block)."""
    renv, rg = [], []
    with np.errstate(over="ignore"):
        for n in range(1, nmax + 1):
            x = b - a * n
            if x >= 0.5:
                renv.append(abs(float(_sp.rgamma(x))))
            else:
                renv.append(float(np.exp(_sp.gammaln(1.0 - x))) / math.pi)
            rg.append(_sp.rgamma(x))
    return tuple(renv), tuple(rg)


def _asymp_block(a: float, b: float, z: np.ndarray, nmax: int = 160):
    """E ~ residues - sum_{n>=1} z^{-n}/Gamma(b - a n), optimally truncated.

    Truncation control uses a smooth envelope of the coefficient size,
    |1/Gamma(x)| <= Gamma(1-x)/pi for x < 1/2 by reflection, instead of
    the raw term magnitudes: the sine factor zeroes whole terms whenever
    b - a n lands on a nonpositive integer (and rounds them to ~1e-15
    noise nearby), which would otherwise fake an early series dip and
    truncate the divergent tail far from its true minimum.  A point
    stops at the first term whose envelope does not fall below the
    smallest one so far; that smallest envelope is its error estimate.

    Each pass works on the live points only.  A point also stops once
    its envelope is below both 2^-55 |s| and _RTOL |residues - s|: the
    envelope keeps falling while the point is live, so every later term
    is below half an ulp of the partial sum s and cannot move it, and
    the error estimate already passes.  Value and accept flag are
    therefore those of running every point to its envelope minimum.
    """
    renv, rg = _asymp_coefs(a, b, nmax)
    res = _ml_residue(a, b, z)
    s = np.zeros_like(z)
    minenv = np.full(z.shape, np.inf)
    idx = np.flatnonzero(np.abs(z) > 1.0)  # |z| <= 1 never converges here
    zi = 1.0 / z[idx]
    p = np.ones_like(zi)
    sl = np.zeros_like(zi)
    me = np.full(zi.shape, np.inf)
    rl = res[idx]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(nmax):
            if not idx.size:
                break
            p = p * zi
            env = np.abs(p) * renv[n]
            grew = env >= me
            snew = sl + p * rg[n]
            done = env < _ULP_FLOOR * np.abs(snew)
            if done.any():
                done &= env <= _RTOL * np.maximum(np.abs(rl - snew), 1e-300)
            out = grew | done
            if out.any():
                s[idx[out]] = np.where(grew, sl, snew)[out]
                minenv[idx[out]] = np.where(grew, me, env)[out]
                keep = ~out
                idx, zi, p, rl = idx[keep], zi[keep], p[keep], rl[keep]
                snew, me, env = snew[keep], me[keep], env[keep]
            sl = snew
            me = np.minimum(me, env)
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
    for rung in np.unique(eps):
        idx = np.flatnonzero(eps == rung)
        p, q, bre, bim2 = _contour_rule(a, b, float(rung), residues)
        for lo in range(0, idx.size, _CONTOUR_ROWS):
            sel = idx[lo:lo + _CONTOUR_ROWS]
            zc = z[sel][:, None]
            d = bre - zc
            out[sel] = ((p - q * zc) / (d * d + bim2)).sum(axis=1)
    if residues:
        out += _ml_residue(a, b, z)
    return out
