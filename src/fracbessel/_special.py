"""Special functions on numpy alone: the few that the package needs.

The Cephes ports (Moshier, *Methods and Programs for Mathematical
Functions*, 1989) keep the operation order of their source, the code
that scipy.special runs too, so they agree with scipy bit for bit
wherever numpy's exp, log, pow, sin, cos and tan agree with the C
library's:

* J0 and J1: a rational function of x^2 with the first two zeros
  factored out up to x = 5, then the Hankel amplitude and phase as
  rational functions of 25/x^2 (A&S 9.2.5-9.2.10);
* Gamma, 1/Gamma and ln|Gamma|: the recurrence into [2, 3] and a
  rational function there, Stirling's series past 13 (ln Gamma) or 33
  (Gamma) and reflection below; 1/Gamma below |x| = 4 by a Chebyshev
  series on [0, 1], exactly 0 at the poles;
* psi: reflection, the recurrence into [1, 2] with Boost's rational
  form there, and the asymptotic series past 10.

The rest are classical forms: int_0^y J0 from its power series, its
Neumann series by Miller's backward recurrence and its asymptotic
expansion; the zeros of J0 from McMahon's expansion (A&S 9.5.12) and
Newton steps; the beta function from the C library's Gamma; Jacobi
polynomials from their three-term recurrence (A&S 22.7); and
1F1(1; b; z) from its series, under Kummer's transform for z < 0.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["j0", "j1", "j0_integral", "j0_zeros", "gammaln", "rgamma", "psi",
           "gamma", "beta", "eval_jacobi", "jacobi_pair", "hyp1f1_one"]

_PIO4 = math.pi / 4.0
_THPIO4 = 3.0 * math.pi / 4.0
_SQ2OPI = 7.9788456080286535588e-1  # sqrt(2 / pi)
_LOGPI = 1.14472988584940017414
_LS2PI = 0.91893853320467274178  # ln sqrt(2 pi)

# Cephes j0.c and j1.c: RP/RQ in x^2 up to x = 5, with the first two
# zeros (DR, Z) factored out; the Hankel amplitude PP/PQ and phase QP/QQ
# in 25/x^2 beyond
_J0_RP = (-4794432209.782018, 1956174919465.5657, -249248344360967.72,
          9708622510473064.0)
_J0_RQ = (499.563147152651, 173785.4016763747, 48440965.83399621,
          11185553704.535683, 2112775201154.892, 310518229857422.56,
          3.1812195594320496e+16, 1.7108629408104315e+18)
_J0_DR = (5.783185962946784, 30.471262343662087)
_J0_PP = (0.0007969367292973471, 0.08283523921074408, 1.239533716464143,
          5.447250030587687, 8.74716500199817, 5.303240382353949, 1.0)
_J0_PQ = (0.0009244088105588637, 0.08562884743544745, 1.2535274390105895,
          5.470977403304171, 8.761908832370695, 5.306052882353947, 1.0)
_J0_QP = (-0.011366383889846916, -1.2825271867050931, -19.553954425773597,
          -93.20601521237683, -177.68116798048806, -147.07750515495118,
          -51.41053267665993, -6.050143506007285)
_J0_QQ = (64.3178256118178, 856.4300259769806, 3882.4018360540163,
          7240.467741956525, 5930.727011873169, 2062.0933166032783,
          242.0057402402914)
_J1_RP = (-899971225.7055594, 452228297998.19403, -72749424522181.83,
          3682957328638529.0)
_J1_RQ = (620.8364781180543, 256987.25675774884, 83514679.14319493,
          22151159547.97925, 4749141220799.914, 784369607876235.9,
          8.952223361846274e+16, 5.322786203326801e+18)
_J1_Z = (14.681970642123893, 49.2184563216946)
_J1_PP = (0.0007621256162081731, 0.07313970569409176, 1.1271960812968493,
          5.112079511468076, 8.424045901417724, 5.214515986823615, 1.0)
_J1_PQ = (0.0005713231280725487, 0.06884559087544954, 1.105142326340617,
          5.073863861286015, 8.399855543276042, 5.209828486823619, 1.0)
_J1_QP = (0.05108625947501766, 4.982138729512334, 75.82382841325453,
          366.7796093601508, 710.8563049989261, 597.4896124006136,
          211.68875710057213, 25.207020585802372)
_J1_QQ = (74.23732770356752, 1056.4488603826283, 4986.410583376536,
          9562.318924047562, 7997.041604473507, 2826.1927851763908,
          336.0936078106983)
# ln Gamma: Stirling's series past 13, a rational function on [2, 3]
_LG_A = (0.0008116141674705085, -0.0005950619042843014, 0.0007936503404577169,
         -0.002777777777300997, 0.08333333333333319)
_LG_B = (-1378.2515256912086, -38801.631513463784, -331612.9927388712,
         -1162370.974927623, -1721737.0082083966, -853555.6642457654)
_LG_C = (-351.81570143652345, -17064.210665188115, -220528.59055385445,
         -1139334.4436798252, -2532523.0717758294, -2018891.4143353277)
# 1/Gamma(w) = w (1 + sum) on [0, 1], Chebyshev in 4w - 2
_RG_R = (3.1317345823123e-17, -6.70718606477908e-16, 2.2003907817225954e-15,
         2.4769163034825414e-13, -6.600741004112952e-12, 5.13850186324227e-11,
         1.0896538645441867e-09, -3.3396463068683694e-08,
         2.6897599644059546e-07, 2.960011775188017e-06, -8.048141249784711e-05,
         0.0004166091387096889, 0.005065798640286087, -0.06419254361091582,
         -0.004985587286840036, 0.12754601561052395)
# psi: Bernoulli terms of the asymptotic series, the rational form on
# [1, 2] about the positive root split into three parts
_PSI_A = (0.08333333333333333, -0.021092796092796094, 0.007575757575757576,
          -0.004166666666666667, 0.003968253968253968, -0.008333333333333333,
          0.08333333333333333)
_PSI_P = (-0.002071332116774595, -0.04525132144873906, -0.28919126444774784,
          -0.6503185377089651, -0.3255503118680449, 0.25479851061131553)
_PSI_Q = (-5.578984132167551e-07, 0.0021284987017821146, 0.054151797245674226,
          0.43593529692665967, 1.4606242909763516, 2.076711702373047, 1.0)
_PSI_ROOT = (1.4616321446374059, 3.309564688275257e-10, 9.016312093258695e-20)
_PSI_Y = 0.9955816268920898
# Gamma: a rational function on [2, 3], Stirling's series past 33
_G_P = (0.00016011952247675185, 0.0011913514700658638, 0.010421379756176158,
        0.04763678004571372, 0.20744822764843598, 0.4942148268014971, 1.0)
_G_Q = (-2.3158187332412014e-05, 0.0005396055804933034, -0.004456419138517973,
        0.011813978522206043, 0.035823639860549865, -0.23459179571824335,
        0.0714304917030273, 1.0)
_G_STIR = (0.0007873113957930937, -0.00022954996161337813,
           -0.0026813261780578124, 0.0034722222160545866, 0.08333333333334822)
_MAXGAM = 171.624376956302725


# elements per piece of a long argument: the work arrays of a piece
# then stay in cache and the memory a call takes stays bounded
_CHUNK = 1 << 14


def _table(*polys):
    """Coefficient columns for _polevl, highest power first, one row per
    polynomial: the shorter rows padded with leading zeros, which leave
    their values unchanged, and a monic polynomial (Cephes' p1evl)
    written with its leading 1."""
    width = max(map(len, polys))
    rows = np.array([(0.0,) * (width - len(c)) + tuple(c) for c in polys])
    return tuple(col[:, None] for col in rows.T)


def _polevl(x, coefs):
    """Horner's rule in Cephes' order, in place: for a tuple of floats
    one array of values, for the columns of _table one row per
    polynomial, all in one loop."""
    ans = np.empty(np.shape(coefs[0])[:1] + x.shape)
    ans[...] = coefs[0]
    for c in coefs[1:]:
        ans *= x
        ans += c
    return ans


# the rational functions' numerator and denominator rows
_J0_R, _J1_R = _table(_J0_RP, (1.0,) + _J0_RQ), _table(_J1_RP, (1.0,) + _J1_RQ)
_J0_H = _table(_J0_PP, _J0_PQ, _J0_QP, (1.0,) + _J0_QQ)
_J1_H = _table(_J1_PP, _J1_PQ, _J1_QP, (1.0,) + _J1_QQ)
_LG_BC = _table(_LG_B, (1.0,) + _LG_C)
_G_PQ, _PSI_PQ = _table(_G_P, _G_Q), _table(_PSI_P, _PSI_Q)


def _flat(fn):
    """Run fn on its argument as a 1-d float array, in pieces of _CHUNK
    elements, and return the values in its shape; floating-point
    warnings are off, since the ports return inf and nan by design."""
    def wrapper(x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        with np.errstate(all="ignore"):
            if flat.size <= _CHUNK:
                return fn(flat).reshape(x.shape)
            out = np.empty_like(flat)
            for lo in range(0, flat.size, _CHUNK):
                out[lo:lo + _CHUNK] = fn(flat[lo:lo + _CHUNK])
        return out.reshape(x.shape)
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _split(x, cond, f_true, f_false):
    """f_true where cond holds and f_false elsewhere, each on its part."""
    if cond.all():
        return f_true(x)
    if not cond.any():
        return f_false(x)
    out = np.empty_like(x)
    out[cond] = f_true(x[cond])
    out[~cond] = f_false(x[~cond])
    return out


def _hankel(x, table, shift):
    """sqrt(2/(pi x)) (P cos(x - shift) - (5/x) Q sin(x - shift)), x > 5,
    with P and Q the ratios of the rows of table at 25/x^2."""
    w = 5.0 / x
    z = 25.0 / (x * x) if shift == _PIO4 else w * w
    p, pd, q, qd = _polevl(z, table)
    p /= pd
    q /= qd
    xn = x - shift
    p *= np.cos(xn)
    q *= w
    q *= np.sin(xn)
    p -= q
    p *= _SQ2OPI
    p /= np.sqrt(x)
    return p


def _j0_near(x):
    z = x * x
    p = (z - _J0_DR[0]) * (z - _J0_DR[1])
    rp, rq = _polevl(z, _J0_R)
    p = p * rp / rq
    return np.where(x < 1e-5, 1.0 - z / 4.0, p)


def _j1_near(x):
    z = x * x
    rp, rq = _polevl(z, _J1_R)
    w = rp / rq
    return w * x * (z - _J1_Z[0]) * (z - _J1_Z[1])


@_flat
def j0(x):
    """Bessel J0, elementwise."""
    x = np.abs(x)
    return _split(x, x <= 5.0, _j0_near, lambda v: _hankel(v, _J0_H, _PIO4))


@_flat
def j1(x):
    """Bessel J1, elementwise."""
    out = _split(np.abs(x), np.abs(x) <= 5.0, _j1_near,
                 lambda v: _hankel(v, _J1_H, _THPIO4))
    return np.where(x < 0.0, -out, out)


# int_0^y J0: y sum_m (-y^2/4)^m / (m!^2 (2m + 1)), 13 terms for y <= 2
_ITJ0_SERIES = tuple((-1.0) ** m / (math.factorial(m) ** 2 * (2 * m + 1))
                     for m in range(12, -1, -1))
# the Neumann series 2 sum_k J_{2k+1}(y) below _ITJ0_FAR, by a backward
# recurrence from order _ITJ0_START, where J_n(40) < 1e-24
_ITJ0_FAR = 40.0
_ITJ0_START = 90


def _itj0_asymptotic() -> tuple:
    """Coefficients in 1/y^2 of the even and odd parts of S in
    int_y^inf H0(t) dt = i sqrt(2/(pi y)) e^{i(y - pi/4)} S(y),
    S = sum_m r_m (i/y)^m.  From Hankel's expansion of H0 (A&S 9.2.7),
    with coefficients a_m, the derivative of that form gives
    r_m = a_m - (m - 1/2) r_{m-1}; 26 terms reach 1e-16 at y = 40."""
    r, a = [1.0], 1.0
    for m in range(1, 26):
        a *= -(2 * m - 1) ** 2 / (8.0 * m)
        r.append(a - (m - 0.5) * r[-1])
    signed = [(-1) ** (m // 2) * rm for m, rm in enumerate(r)]
    return tuple(signed[0::2][::-1]), tuple(signed[1::2][::-1])


_ITJ0_EVEN, _ITJ0_ODD = _itj0_asymptotic()


def _itj0_near(y):
    return y * _polevl(0.25 * y * y, _ITJ0_SERIES)


def _itj0_mid(y):
    """Miller's algorithm: J_n up to one common factor from zero above
    _ITJ0_START, normalized by J0 + 2 sum_k J_{2k} = 1 (A&S 9.1.46,
    9.12)."""
    hi, lo = np.zeros_like(y), np.full_like(y, 1e-30)  # J_{n+1}, J_n
    odd, even = np.zeros_like(y), np.zeros_like(y)
    step = 2.0 / y
    for n in range(_ITJ0_START, 0, -1):
        hi, lo = lo, n * step * lo - hi
        if n % 2 == 0:
            odd += lo
        elif n > 1:
            even += lo
    return 2.0 * odd / (lo + 2.0 * even)


def _itj0_far(y):
    """1 - int_y^inf J0 from the even and odd parts of S, with the phase
    sin(y - pi/4), cos(y - pi/4) taken from y itself."""
    u2 = 1.0 / (y * y)
    s, c = np.sin(y), np.cos(y)
    tail = ((s - c) * _polevl(u2, _ITJ0_EVEN)
            + (s + c) * _polevl(u2, _ITJ0_ODD) / y)
    return 1.0 + tail / np.sqrt(math.pi * y)


@_flat
def j0_integral(y):
    """int_0^y J0(t) dt for y >= 0, elementwise: the power series up to
    y = 2, the Neumann series 2 sum_k J_{2k+1}(y) (A&S 11.1.2) below 40
    and the asymptotic expansion beyond."""
    return _split(y, y <= 2.0, _itj0_near, lambda v: _split(
        v, v < _ITJ0_FAR, _itj0_mid, _itj0_far))


def j0_zeros(n: int) -> np.ndarray:
    """The first n positive zeros of J0: McMahon's expansion in
    b = (k - 1/4) pi, then Newton steps x + J0(x)/J1(x)."""
    b = (np.arange(1, n + 1) - 0.25) * math.pi
    u = 1.0 / (8.0 * b) ** 2
    x = b + 8.0 * b * u * (1.0 - u * (124.0 / 3.0 - u * 120928.0 / 15.0))
    for _ in range(3):
        x = x + j0(x) / j1(x)
    return x


def _shift(x, lo, hi, direct=False):
    """(w, z): x moved into [lo, hi) by steps of 1, or to 0, and the
    product z of the recurrence's factors, as Cephes' loops make them:
    w -= 1, z *= w while w >= hi; z /= w, w += 1 while w < lo.  With
    ``direct`` each w is x + j itself, as Cephes' ln Gamma takes it.
    The steps from x >= hi or x <= -1 are exact anyway, so there too
    w = x -+ j, and a reduction down axis 0, which takes its rows in
    order, forms z for all points at once (factor 1 where a point has
    stopped); only the steps up from -1 < x < lo may round, in order."""
    up = np.maximum(np.floor(x - hi) + 1.0, 0.0)
    w, z = x - up, np.ones_like(x)
    if up.any():
        j = np.arange(1.0, up.max() + 1.0)[:, None]
        z = np.multiply.reduce(np.where(j <= up, x - j, 1.0), axis=0)
    if not x.size or x.min() >= lo:
        return w, z
    if direct:  # a pole divides by 0 on its way and gives inf
        down = np.where(x < lo, np.ceil(lo - x), 0.0)
    else:  # a pole stops at w = 0
        pole = (x <= 0.0) & (x == np.floor(x))
        down = np.where(x <= -1.0, np.where(pole, -x, np.ceil(lo - x)), 0.0)
    if down.any():  # z is 1 at the points that step down
        j = np.arange(1.0, down.max() + 1.0)[:, None]
        z = np.where(down > 0.0, np.divide.reduce(
            np.where(j <= down, x + (j - 1.0), 1.0), axis=0, initial=1.0), z)
        w = w + down
    while not direct:  # -1 < x < lo, at most lo + 1 steps
        m = np.flatnonzero((w < lo) & (w != 0.0))
        if not m.size:
            break
        z[m] /= w[m]
        w[m] += 1.0
    return w, z


def _lgam_big(x):
    """ln Gamma(x) for x >= 13: Stirling's series, two terms past 1000
    and none past 1e8."""
    q = (x - 0.5) * np.log(x) - x + _LS2PI
    corr = _split(1.0 / (x * x), x < 1000.0, lambda p: _polevl(p, _LG_A),
                  lambda p: (7.9365079365079365079365e-4 * p
                             - 2.7777777777777777777778e-3) * p
                  + 0.0833333333333333333333)
    return np.where(x > 1e8, q, q + corr / x)


def _lgam_mid(x):
    """ln|Gamma(x)| for -34 <= x < 13 by the recurrence into [2, 3)."""
    u, z = _shift(x, 2.0, 3.0, direct=True)
    r = u - 2.0  # 0 at u = 2, where the rational term is 0 too
    b, c = _polevl(r, _LG_BC)
    p = r * b / c
    return np.where(u == 0.0, np.inf, np.log(np.abs(z)) + p)


def _lgam_neg(x):
    """ln|Gamma(x)| for x < -34 by reflection."""
    q = -x
    w = _lgam_big(q)
    p = np.floor(q)
    z = q - p
    z = q * np.sin(math.pi * np.where(z > 0.5, (p + 1.0) - q, z))
    return np.where((p == q) | (z == 0.0), np.inf, _LOGPI - np.log(z) - w)


@_flat
def gammaln(x):
    """ln|Gamma(x)|, elementwise; inf at the poles."""
    out = _split(x, x >= 13.0, _lgam_big, lambda v: _split(
        v, v >= -34.0, _lgam_mid, _lgam_neg))
    return np.where(np.isfinite(x), out, x)


def _chbevl(x, coefs):
    """Chebyshev series by Clenshaw's recurrence, Cephes' chbevl, in
    three rotating work arrays."""
    b0, b1, b2 = np.full_like(x, coefs[0]), np.zeros_like(x), np.empty_like(x)
    for c in coefs[1:]:
        b2, b1, b0 = b1, b0, b2
        np.multiply(x, b1, out=b0)
        b0 -= b2
        b0 += c
    return 0.5 * (b0 - b2)


def _stirf(x):
    """Gamma(x) for x > 33 from Stirling's series, Cephes' stirf."""
    w = 1.0 / x
    w = 1.0 + w * _polevl(w, _G_STIR)

    def halves(v):  # x^(x - 1/2) / e^x in two halves past 143
        h = v ** (0.5 * v - 0.25)
        return h * (h / np.exp(v))
    y = _split(x, x <= 143.01608, lambda v: v ** (v - 0.5) / np.exp(v), halves)
    y = 2.50662827463100050242 * y * w
    return np.where(x >= _MAXGAM, np.inf, y)


def _gamma_far(x):
    """Gamma(x) for |x| > 33: Stirling, reflected below 0."""
    q = np.abs(x)
    p = np.floor(q)
    sign = np.where((x < 0.0) & (p % 2.0 == 0.0), -1.0, 1.0)
    z = q - p
    z = np.abs(q * np.sin(math.pi * np.where(z > 0.5, q - (p + 1.0), z)))
    g = _stirf(q)
    neg = np.where((p == q) | (z == 0.0), np.inf, math.pi / (z * g))
    return sign * np.where(x < 0.0, neg, g)


def _gamma_near(x):
    """Gamma(x) for |x| <= 33 by the recurrence into [2, 3)."""
    w, z = _shift(x, 2.0, 3.0)
    r = w - 2.0
    p, q = _polevl(r, _G_PQ)
    return np.where(w == 0.0, np.inf, np.where(w == 2.0, z, z * p / q))


@_flat
def gamma(x):
    """Gamma(x), elementwise, as Cephes computes it; inf at the poles."""
    return _split(x, np.abs(x) <= 33.0, _gamma_near, _gamma_far)


def _rgamma_near(x):
    w, z = _shift(x, 0.0, np.nextafter(1.0, 2.0))  # while w > 1
    y = w * (1.0 + _chbevl(4.0 * w - 2.0, _RG_R)) / z
    return np.where(w == 0.0, 0.0, np.where(w == 1.0, 1.0 / z, y))


@_flat
def rgamma(x):
    """1/Gamma(x), elementwise; exactly 0 at the poles.  Below |x| = 4 a
    Chebyshev series on [0, 1] reached by the recurrence, which has no
    poles to divide by; 1/Gamma(x) beyond."""
    return _split(x, np.abs(x) < 4.0, _rgamma_near, lambda v: 1.0 / gamma(v))


@_flat
def psi(x):
    """Digamma, elementwise, as Cephes: reflection below 0, the
    recurrence into [1, 2] below 10 and the asymptotic series beyond;
    nan at the poles."""
    x, y = x.copy(), np.zeros_like(x)
    neg = x < 0.0
    r = np.fmod(x[neg], 1.0)
    pole = np.flatnonzero(neg)[r == 0.0]
    y[neg] = -math.pi / np.tan(math.pi * r)
    x[neg] = 1.0 - x[neg]
    lo = (x > 0.0) & (x < 1.0)
    y[lo] -= 1.0 / x[lo]
    x[lo] += 1.0
    # x -= 1, y += 1/x while x > 2: the rows of 1/(x - j) summed in order
    steps = np.where((x > 2.0) & (x < 10.0), np.ceil(x) - 2.0, 0.0)
    if steps.any():
        j = np.arange(1.0, steps.max() + 1.0)[:, None]
        terms = np.where(j <= steps, 1.0 / (x - j), 0.0)
        y = np.add.reduce(np.concatenate([y[None], terms]), axis=0)
        x = x - steps
    m = (x >= 1.0) & (x <= 2.0)
    g = x[m] - _PSI_ROOT[0]
    g -= _PSI_ROOT[1]
    g -= _PSI_ROOT[2]
    p, q = _polevl(x[m] - 1.0, _PSI_PQ)
    r = p / q
    y[m] += g * _PSI_Y + g * r
    m = x > 2.0
    xm = x[m]
    z = 1.0 / (xm * xm)
    asy = np.where(xm < 1e17, z * _polevl(z, _PSI_A), 0.0)
    y[m] += np.log(xm) - (0.5 / xm) - asy
    y[x == 0.0] = -np.copysign(np.inf, x[x == 0.0])
    y[pole] = np.nan
    return np.where(np.isnan(x), x, y)




def beta(a: float, b: float) -> float:
    """The beta function B(a, b) for a, b > 0 in Cephes' order: the C
    library's Gamma(a) Gamma(b) / Gamma(a + b), divided by the factor
    nearer it first, or past Gamma's range exp(ln Gamma(a) + (ln Gamma(b)
    - ln Gamma(a + b)))."""
    a, b = max(a, b), min(a, b)
    y = a + b
    if y > _MAXGAM:
        lg = gammaln(np.array([y, b, a]))
        return math.exp(lg[2] + (lg[1] - lg[0]))
    y, a, b = math.gamma(y), math.gamma(a), math.gamma(b)
    if abs(a - y) > abs(b - y):
        return b / y * a
    return a / y * b


def _binom(k: int, alpha):
    """binom(k + alpha, k) = prod_{i=1..k} (alpha + i) / i, for each
    alpha."""
    out = []
    for a in np.ravel(alpha).tolist():
        c = 1.0
        for i in range(1, k + 1):
            c *= (a + i) / i
        out.append(c)
    return np.reshape(out, np.shape(alpha))


def jacobi_pair(n: int, alpha, beta_, x):
    """(P_{n-1}, P_n)^(alpha, beta)(x) for n >= 1, elementwise in x, by
    scipy's form of the three-term recurrence (A&S 22.7) on
    p_k = P_k / binom(k + alpha, k).  alpha and beta_ may be columns, one
    family per row, which share the loop."""
    x = np.asarray(x, dtype=float)
    alpha, beta_ = np.asarray(alpha, dtype=float), np.asarray(beta_, dtype=float)
    xm = x - 1.0
    d = (alpha + beta_ + 2.0) * xm / (2.0 * (alpha + 1.0))
    last, p = np.ones_like(d), d + 1.0
    # the recurrence's factors for k = 1..n-1, one row per k (A times
    # xm at once), then the steps d = (A xm p + B d) / C, p += d in place
    k = np.arange(1.0, n).reshape((-1,) + (1,) * max(alpha.ndim, 1))
    t = 2.0 * k + alpha + beta_
    axm = (t * (t + 1.0) * (t + 2.0)) * xm
    b = 2.0 * k * (k + beta_) * (t + 2.0)
    c = 2.0 * (k + alpha + 1.0) * (k + alpha + beta_ + 1.0) * t
    u = np.empty_like(d)
    for i in range(n - 1):
        if i == n - 2:
            last = p.copy()
        np.multiply(axm[i], p, out=u)
        d *= b[i]
        d += u
        d /= c[i]
        p += d
    return _binom(n - 1, alpha) * last, _binom(n, alpha) * p


def eval_jacobi(n: int, alpha: float, beta_: float, x):
    """Jacobi polynomial P_n^(alpha, beta)(x), elementwise in x."""
    if n == 0:
        return np.ones_like(np.asarray(x, dtype=float))
    return jacobi_pair(n, alpha, beta_, x)[1]


def hyp1f1_one(b: float, z):
    """1F1(1; b; z) for b > 0, elementwise in z, by its series: the
    terms z^n / (b)_n for z >= 0 and, for z < 0, e^z times the positive
    terms of 1F1(b - 1; b; -z) (Kummer), which do not cancel."""
    shape = np.shape(z)
    z = np.asarray(z, dtype=float).reshape(-1)
    neg = z < 0.0
    u = np.abs(z)
    s = np.ones_like(z)
    t = np.ones_like(z)
    live = np.flatnonzero(u > 0.0)
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and n < 4096:
            n += 1
            ul = u[live]
            nl = neg[live]
            t[live] *= ul / np.where(nl, n, b + n - 1.0)
            term = np.where(nl, (b - 1.0) / (b - 1.0 + n), 1.0) * t[live]
            s[live] += term
            live = live[~((np.abs(term) <= 2.0 ** -56 * np.abs(s[live]))
                          & (n > ul))]
        return np.where(neg, np.exp(z) * s, s).reshape(shape)
