"""Eigenpairs of the radial Laplacian on the unit disk and the
weighted Fourier-Bessel projection built on them.

The spectral family is J0(lam_k x) with lam_k the positive zeros of J0,
orthogonal on [0, 1] against the weight x.  Analysis divides by the
norm J1(lam_k)^2 / 2; synthesis is a plain truncated sum, made by
``solver.radial_basis``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._special import j0_zeros
from .errors import NumericError
from .quadrature import QuadratureRule, gauss_legendre_rule
from .specfun import bessel_j

__all__ = [
    "Eigenvalue",
    "bessel_zero",
    "eigenvalue_table",
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


def eigenvalue_table(N: int, *, asymptotic: bool = False) -> tuple:
    """First N eigenpairs, either the true zeros of J0 (default, from
    McMahon's expansion and Newton steps, all at once) or the verbatim
    asymptotic values pi*k - pi/4.

    The asymptotic table deliberately does not satisfy J0(lam) = 0 to
    machine precision; it exists to reproduce results derived under
    that approximation.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    ks = range(1, N + 1)
    if asymptotic:
        lams = np.array([math.pi * k - math.pi / 4.0 for k in ks])
    else:
        lams = j0_zeros(N)
    j1 = bessel_j(1, lams)
    return tuple(Eigenvalue(k=k, lam=lam, norm_sq=0.5 * j * j)
                 for k, lam, j in zip(ks, lams, j1))


@lru_cache(maxsize=None)
def bessel_zero(k: int) -> Eigenvalue:
    """k-th positive zero of J0 with its norm: entry k of the true-zero
    ``eigenvalue_table``."""
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k}")
    return eigenvalue_table(int(k))[-1]


def _panel_rule(panels: int, breaks) -> tuple:
    """Nodes and weights of the composite Gauss-Legendre rule on
    ``panels`` equal panels of [0, 1], also split at ``breaks``."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    if len(breaks):
        b = np.asarray(breaks, dtype=float)
        edges = np.array(sorted(set(edges.tolist()).union(
            b[(b > 0.0) & (b < 1.0)].tolist())))
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


def fourier_bessel_table(g, eigs: Sequence[Eigenvalue],
                         quad: QuadratureRule = None, breaks=()) -> np.ndarray:
    """Weighted projections (2 / J1(lam_k)^2) int_0^1 x g(x) J0(lam_k x) dx
    of g onto every mode of ``eigs``, one row per mode.

    g takes an array of nodes and returns one value per node, or one row
    of values per node (a batch of functions, one column each).  The
    default rule is a composite Gauss-Legendre rule whose panels each
    span at most half a period of the highest mode, split also at
    ``breaks`` (the kinks of a piecewise g).  The whole table is made
    again on twice the panels, and a NumericError names the first mode
    whose two values disagree; the refined table is returned.  A
    caller-supplied rule is trusted as given (that is the hook for
    deliberately different oracle rules).
    """
    lams = np.array([ev.lam for ev in eigs])
    norms = np.array([ev.norm_sq for ev in eigs])
    if quad is not None:
        return _project(g, lams, norms, quad.nodes, quad.weights)
    panels = max(_MIN_PANELS, math.ceil(float(lams.max()) / math.pi))
    c0 = _project(g, lams, norms, *_panel_rule(panels, breaks))
    c1 = _project(g, lams, norms, *_panel_rule(2 * panels, breaks))
    bad = np.abs(c0 - c1) > 1e-8 * (1.0 + np.abs(c1))
    if bad.any():
        i = np.argwhere(bad)[0]
        raise NumericError(
            f"Fourier-Bessel projection for k={eigs[i[0]].k} has not "
            f"converged: {c0[tuple(i)]:.12e} vs {c1[tuple(i)]:.12e} under "
            "node refinement")
    return c1


def fourier_bessel_coeff(g, ev: Eigenvalue, quad: QuadratureRule = None):
    """Weighted projection (2 / J1(lam_k)^2) int_0^1 x g(x) J0(lam_k x) dx
    of g onto one mode: ``fourier_bessel_table`` for that mode alone, with
    the same convergence check and ``quad`` hook.  A float for a
    scalar-valued g, one value per column for a batch g."""
    out = fourier_bessel_table(g, (ev,), quad)[0]
    return float(out) if out.ndim == 0 else out
