"""Eigenpairs of the radial Laplacian on the unit disk and the
weighted Fourier-Bessel projection built on them.

The spectral family is J0(lam_k x) with lam_k the positive zeros of J0,
orthogonal on [0, 1] against the weight x.  Analysis divides by the
norm J1(lam_k)^2 / 2; synthesis is a plain truncated sum, made by
``solver.radial_basis``.

The solve projects its forcing in closed form (``fourier_bessel_closed``):
a polynomial plus hinges (x - a)_+ has moments against x J0(lam x) that
need J0, J1 and int_0^y J0 only.  The composite-quadrature table
(``fourier_bessel_table``, ``fourier_bessel_coeff``) projects any
callable, checks itself under node refinement, and serves the tests as
the closed form's independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._special import j0, j0_integral, j0_zeros, j1
from .errors import NumericError
from .quadrature import gauss_legendre_rule
from .specfun import bessel_j

__all__ = [
    "Eigenvalue",
    "bessel_zero",
    "eigenvalue_table",
    "fourier_bessel_closed",
    "fourier_bessel_coeff",
    "fourier_bessel_table",
]

# Composite projection rule: _PANEL_NODES-point Gauss-Legendre on equal
# panels, one per half-period pi / lam of the highest mode, at least
# _MIN_PANELS of them (64 nodes, the smallest rule used before).
_PANEL_NODES = 16
_MIN_PANELS = 4
# modes per J0 block, which bounds the memory of the projection
_MODE_CHUNK = 64


@dataclass(frozen=True)
class Eigenvalue:
    """One eigenpair: index k, frequency lam, and the squared norm
    J1(lam)^2 / 2 of J0(lam x) under the weight x on [0, 1]."""

    k: int
    lam: float
    norm_sq: float

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValueError(f"index k must be a positive integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "norm_sq", float(self.norm_sq))
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.norm_sq > 0.0:
            raise ValueError(f"norm_sq must be positive, got {self.norm_sq}")


def eigenvalue_table(N: int) -> tuple:
    """First N eigenpairs: the zeros of J0, all at once from McMahon's
    expansion and Newton steps, with their norms."""
    if N < 1:
        raise ValueError("N must be at least 1")
    lams = j0_zeros(N)
    j1 = bessel_j(1, lams)
    return tuple(Eigenvalue(k=k, lam=lam, norm_sq=0.5 * j * j)
                 for k, lam, j in zip(range(1, N + 1), lams, j1))


@lru_cache(maxsize=None)
def bessel_zero(k: int) -> Eigenvalue:
    """k-th positive zero of J0 with its norm: entry k of
    ``eigenvalue_table``."""
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k}")
    return eigenvalue_table(int(k))[-1]


# Moments I_n(lam) = int_0^1 x^n J0(lam x) dx: I_0 = (1/lam) int_0^lam J0,
# I_1 = J1(lam)/lam, and integration by parts twice gives (Watson 1944,
# sec. 12.1)
#
#     I_n = J1/lam + (n-1) J0/lam^2 - ((n-1)/lam)^2 I_{n-2},   n >= 1,
#
# with the J0(lam) term kept, so lam need not be a zero of J0.  Taken
# upward the recurrence multiplies an error by ((n-1)/lam)^2, which is
# harmless while n - 1 <= lam; taken downward it multiplies one by
# (lam/(n-1))^2.  _low_moments seeds the downward recurrence with zeros
# where the product of those factors down to the orders it needs falls
# below _SEED_DECAY, so the seeds leave no trace.
_SEED_DECAY = 1e-20


def _by_parts(lam, b0, b1, i0, a):
    """sum_n a_n I_n(lam), one row per lam, by the recurrence applied to
    the whole polynomial (a_n along axis 0, then any batch axes):

        sum_n a_n I_n = a_0 I_0 + (sum_{n>=1} a_n) J1/lam
                        + (sum_{n>=1} (n-1) a_n) J0/lam^2
                        - lam^-2 sum_{n>=2} (n-1)^2 a_n I_{n-2},

    repeated on the new coefficients until none is left.  These are the
    boundary terms of int_0^1 x g J0 = g(1) J1/lam + g'(1) J0/lam^2 -
    lam^-2 int_0^1 x (g'' + g'/x) J0, so a g that vanishes at x = 1 to
    some order makes the leading ones 0 (exactly, for integer
    coefficients), where summing the moments would cancel.  Upward, so
    for lam >= n_max - 1 only.
    """
    shape = (-1,) + (1,) * (a.ndim - 1)
    lam, b0, b1, i0 = (v.reshape(shape) for v in (lam, b0, b1, i0))
    out, fac = 0.0, 1.0
    while len(a):
        n = np.arange(len(a)).reshape(shape)
        out = out + fac * (a[0] * i0 + a[1:].sum(axis=0) * b1 / lam
                           + ((n[1:] - 1) * a[1:]).sum(axis=0) * b0 / lam ** 2)
        a = (n[2:] - 1) ** 2 * a[2:]
        fac = -fac / lam ** 2
    return out


def _low_moments(lam, b0, b1, i0, n_max: int) -> np.ndarray:
    """I_n(lam) for n = 0..n_max, one row per lam < n_max - 1: upward for
    n - 1 <= lam, downward from zero seeds above."""
    out = np.empty((lam.size, n_max + 1))
    out[:, 0], out[:, 1] = i0, b1 / lam
    for n in range(2, n_max + 1):
        out[:, n] = (b1 + ((n - 1) * b0 - (n - 1) ** 2 * out[:, n - 2])
                     / lam) / lam
    top, decay = n_max, 1.0
    while decay > _SEED_DECAY:
        top += 2
        decay *= (lam.max() / (top - 1)) ** 2
    seeds = np.zeros((2, lam.size))  # I_n by the parity of n
    for n in range(top + 1, 1, -1):
        seeds[n % 2] = (lam * b1 + (n - 1) * b0
                        - lam * lam * seeds[n % 2]) / (n - 1) ** 2
        above = n - 3 > lam
        if n - 2 <= n_max and above.any():
            out[above, n - 2] = seeds[n % 2][above]
    return out


def fourier_bessel_closed(eigs: Sequence[Eigenvalue], poly, knots=(),
                          jumps=None) -> np.ndarray:
    """Weighted projections (2 / J1(lam_k)^2) int_0^1 x g(x) J0(lam_k x) dx
    of g(x) = sum_n poly[n] x^n + sum_j jumps[j] (x - knots[j])_+ onto
    every mode of ``eigs``, in closed form, one row per mode.

    poly and jumps may carry one column per function of a batch, and the
    result then has one column each.  Knots must be >= 0; a hinge at
    a >= 1 vanishes on [0, 1].  The polynomial takes _by_parts, or the
    moments of _low_moments on the modes with lam < n_max - 1, n_max its
    degree plus one.  With y = lam a, a hinge at a < 1 adds its jump
    times

        int_a^1 x (x - a) J0(lam x) dx
            = I_2 - a I_1 + (int_0^y J0 - y J0(y)) / lam^3,

    since int_0^a x J0(lam x) dx = a J1(y)/lam and int_0^a x^2 J0(lam x)
    dx = a^2 J1(y)/lam + a J0(y)/lam^2 - lam^-3 int_0^y J0.
    """
    lams = np.array([ev.lam for ev in eigs])
    norms = np.array([ev.norm_sq for ev in eigs])
    b0, b1 = j0(lams), j1(lams)
    i0 = j0_integral(lams) / lams
    # the coefficients of x g(x)
    poly = np.asarray(poly, dtype=float)
    a = np.concatenate([np.zeros((1,) + poly.shape[1:]), poly])
    out = np.empty((lams.size,) + poly.shape[1:])
    low = lams < a.shape[0] - 2
    out[~low] = _by_parts(lams[~low], b0[~low], b1[~low], i0[~low], a)
    if low.any():
        out[low] = np.tensordot(_low_moments(
            lams[low], b0[low], b1[low], i0[low], a.shape[0] - 1), a, axes=1)
    knots = np.asarray(knots, dtype=float)
    if np.any(knots < 0.0):
        raise ValueError("hinge knots must be >= 0")
    inside = knots < 1.0
    if inside.any():
        k = knots[inside]
        y = np.outer(lams, k)
        i1 = b1 / lams
        i2 = i1 + (b0 - i0) / lams ** 2
        hinge = (i2[:, None] - i1[:, None] * k
                 + (j0_integral(y) - y * j0(y)) / lams[:, None] ** 3)
        out = out + hinge @ np.asarray(jumps, dtype=float)[inside]
    return out / norms.reshape((-1,) + (1,) * (out.ndim - 1))


def _panel_rule(panels: int) -> tuple:
    """Nodes and weights of the composite Gauss-Legendre rule on
    ``panels`` equal panels of [0, 1]."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    span = np.diff(edges)[:, None]
    gl = gauss_legendre_rule(_PANEL_NODES)
    return ((edges[:-1, None] + span * gl.nodes).ravel(),
            (span * gl.weights).ravel())


def _project(g, lams, norms, nodes, weights) -> np.ndarray:
    """(1 / norm_k) sum_i w_i x_i g(x_i) J0(lam_k x_i), one row per mode;
    g returns one value, or one row of values, per node."""
    gx = np.asarray(g(nodes), dtype=float)
    wg = (weights * nodes).reshape((-1,) + (1,) * (gx.ndim - 1)) * gx
    out = np.empty((lams.size,) + gx.shape[1:])
    for lo in range(0, lams.size, _MODE_CHUNK):
        sl = slice(lo, lo + _MODE_CHUNK)
        out[sl] = bessel_j(0, np.outer(lams[sl], nodes)) @ wg
    return out / norms.reshape((-1,) + (1,) * (out.ndim - 1))


def fourier_bessel_table(g, eigs: Sequence[Eigenvalue]) -> np.ndarray:
    """Weighted projections (2 / J1(lam_k)^2) int_0^1 x g(x) J0(lam_k x) dx
    of g onto every mode of ``eigs``, one row per mode.

    g takes an array of nodes and returns one value per node, or one row
    of values per node (a batch of functions, one column each).  The
    rule is a composite Gauss-Legendre rule whose panels each span at
    most half a period of the highest mode.  The whole table is made
    again on twice the panels, and a NumericError names the first mode
    whose two values disagree; the refined table is returned.
    """
    lams = np.array([ev.lam for ev in eigs])
    norms = np.array([ev.norm_sq for ev in eigs])
    panels = max(_MIN_PANELS, math.ceil(float(lams.max()) / math.pi))
    c0 = _project(g, lams, norms, *_panel_rule(panels))
    c1 = _project(g, lams, norms, *_panel_rule(2 * panels))
    bad = np.abs(c0 - c1) > 1e-8 * (1.0 + np.abs(c1))
    if bad.any():
        i = np.argwhere(bad)[0]
        raise NumericError(
            f"Fourier-Bessel projection for k={eigs[i[0]].k} has not "
            f"converged: {c0[tuple(i)]:.12e} vs {c1[tuple(i)]:.12e} under "
            "node refinement")
    return c1


def fourier_bessel_coeff(g, ev: Eigenvalue):
    """Weighted projection (2 / J1(lam_k)^2) int_0^1 x g(x) J0(lam_k x) dx
    of g onto one mode: ``fourier_bessel_table`` for that mode alone, with
    the same convergence check.  A float for a scalar-valued g, one value
    per column for a batch g."""
    out = fourier_bessel_table(g, (ev,))[0]
    return float(out) if out.ndim == 0 else out
