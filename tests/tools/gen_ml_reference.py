"""Generate the frozen Mittag-Leffler reference table.

Run from the repository root:

    python3 tests/tools/gen_ml_reference.py > tests/_ml_reference.py

The reference values come from mpmath only, by two routes chosen per
point so that neither shares code or regime logic with the package
evaluator:

* Taylor summation at a working precision scaled to the cancellation
  budget |z|^(1/alpha)/ln(10) digits.  For negative arguments the series
  hump exceeds the result by exp(|z|^(1/alpha)), so the precision must
  absorb that before rounding; positive arguments have no cancellation.
* Where the budget is impractical (deep negative tail), the algebraic
  asymptotic series -sum z^{-n}/Gamma(b-an) optimally truncated, plus
  the conjugate pole pair exp-term for alpha > 1.  Its truncation error
  is of the order exp(-|z|^(1/alpha)), far below target precision in
  this regime.

The two regimes overlap for a wide band of |z|; gen_check() prints the
agreement on that band as a self-test of the generator.
"""

import math

import mpmath as mp

TAYLOR_DIGIT_LIMIT = 700.0


def _taylor(a, b, z, extra=40):
    cancel_digits = 0.0
    if z < 0:
        cancel_digits = abs(z) ** (1.0 / a) / math.log(10.0)
    dps = int(extra + cancel_digits + 10)
    with mp.workdps(dps):
        am, bm, zm = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        s = mp.mpf(0)
        n = 0
        floor = mp.mpf(10) ** (-dps + 5)
        while True:
            t = zm ** n / mp.gamma(bm + am * n)
            s += t
            if n > 4 and abs(t) < floor * max(mp.mpf(1), abs(s)):
                return +s
            n += 1
            if n > 200000:
                raise RuntimeError(f"taylor stalled at ({a},{b},{z})")


def _asymp(a, b, z, dps=80):
    with mp.workdps(dps):
        am, bm, zm = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        s = mp.mpf(0)
        prev_env = mp.inf
        n = 1
        while n < 100000:
            x = bm - am * n
            # envelope of |1/Gamma(x)|, smooth through the sine zeros
            env = (mp.gamma(1 - x) / mp.pi if x < 0.5 else
                   abs(mp.rgamma(x))) * abs(zm) ** (-n)
            if env >= prev_env:
                break
            prev_env = env
            s += zm ** (-n) * mp.rgamma(x)
            n += 1
        total = -s
        if z > 0:
            r = zm ** (1 / am)
            total += r ** (1 - bm) * mp.e ** r / am
        elif a > 1.0:
            r = (-zm) ** (1 / am)
            ang = mp.pi / am
            total += (2 / am) * r ** (1 - bm) * mp.e ** (r * mp.cos(ang)) \
                * mp.cos(r * mp.sin(ang) + (1 - bm) * ang)
        return +total


def ml_reference(a, b, z):
    """High-precision E_{a,b}(z) as a float, route chosen per point."""
    if z == 0.0:
        with mp.workdps(40):
            return float(1 / mp.gamma(b))
    if z > 0 or abs(z) ** (1.0 / a) / math.log(10.0) <= TAYLOR_DIGIT_LIMIT:
        return float(_taylor(a, b, z))
    return float(_asymp(a, b, z))


GRID_A = [0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.01, 1.2, 1.35, 1.4, 1.5,
          1.8, 1.95, 2.0]
GRID_B = [0.6, 1.0, 1.2, 1.35, 1.6, 2.0, 2.35]
GRID_Z = [-1e8, -1e6, -4e4, -1000.0, -200.0, -80.0, -30.0, -12.0, -5.0,
          -2.0, -0.5, -0.1, 0.1, 0.5, 3.0, 10.0, 25.0]
# The closed-form mode kernels raise beta by the convolution power:
# alpha1 + m/p + 1 forward, delta2 + m + 1 backward, delta2 + a + m + 1
# in the history terms, which reaches past GRID_B for the operators in
# use.  Those betas get their own block after the main grid.
GRID_A_HIGH_B = [0.7, 1.2, 1.35, 1.5, 2.0]
GRID_HIGH_B = [2.7, 2.95, 3.35, 3.75]
# The evaluator's contour rays switch from short of the pole pair to
# beyond it at alpha = 4/3, coming nearest to pi/2 just below it; at
# alpha = 1.001 the pair sits next to the negative axis, and at 1.999
# next to the imaginary axis, short of the alpha = 2 closed forms.  The
# last block sits at those edges, on the band of |z| the contour serves.
GRID_A_EDGE = [1.001, 1.3333, 1.3334, 1.999]
GRID_B_EDGE = [0.6, 1.0, 1.6]
GRID_Z_EDGE = [-3.0, -9.0, -30.0]


def gen_table():
    rows = []
    for grid_a, grid_b, grid_z in ((GRID_A, GRID_B, GRID_Z),
                                   (GRID_A_HIGH_B, GRID_HIGH_B, GRID_Z),
                                   (GRID_A_EDGE, GRID_B_EDGE, GRID_Z_EDGE)):
        for a in grid_a:
            for b in grid_b:
                for z in grid_z:
                    if z > 0 and z ** (1.0 / a) > 600.0:
                        continue  # overflow territory, no finite reference
                    rows.append((a, b, z, ml_reference(a, b, z)))
    return rows


def gen_check():
    """Cross-validate the two generator routes on their overlap band.

    The asymptotic route carries an irreducible exp(-|z|^(1/a)) error,
    so the comparison only covers points where that is below 1e-18;
    the table generator itself uses it far deeper still.  The upper cut
    keeps the Taylor working precision below ~260 digits so the check
    stays quick.
    """
    worst = 0.0
    for a in [1.2, 1.35, 1.5, 1.8, 1.95]:
        for b in [0.6, 1.35, 2.35]:
            for z in [-200.0, -1000.0, -4e4]:
                if not 45.0 <= abs(z) ** (1.0 / a) <= 575.0:
                    continue
                t = float(_taylor(a, b, z))
                s = float(_asymp(a, b, z))
                rel = abs(t - s) / max(abs(t), 1e-300)
                worst = max(worst, rel)
    return worst


def main():
    print('"""Frozen Mittag-Leffler reference values.')
    print()
    print("Generated by tests/tools/gen_ml_reference.py (mpmath, dual-route);")
    print('do not edit by hand."""')
    print()
    print("ML_REFERENCE = [")
    for a, b, z, v in gen_table():
        print(f"    ({a!r}, {b!r}, {z!r}, {v!r}),")
    print("]")


if __name__ == "__main__":
    main()
