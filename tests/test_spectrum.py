"""Eigenvalue table, the weighted Fourier-Bessel projection and the
series synthesis."""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad as adaptive_quad
from scipy.special import j0 as scipy_j0
from scipy.special import jv, roots_legendre

import fracbessel.spectrum as spectrum
from fracbessel.errors import NumericError
from fracbessel.quadrature import gauss_jacobi_rule, gauss_legendre_rule
from fracbessel.solver import (Forcing, ProblemSpec, _hinges, radial_basis,
                               solve_modes)
from fracbessel.specfun import bessel_j
from fracbessel.spectrum import (Eigenvalue, _panel_rule, bessel_zero,
                                 eigenvalue_table, fourier_bessel_closed,
                                 fourier_bessel_coeff, fourier_bessel_table)

# mpmath besseljzero(0, k), 50 digits, rounded to double
J0_ZERO_1 = 2.404825557695773
J0_ZERO_5 = 14.930917708487786

# mpmath besseljzero(1, k)
J1_ZEROS = (3.8317059702075125, 7.015586669815619, 10.173468135062722)


class TestBesselZero:
    def test_frozen_values(self):
        assert_allclose(bessel_zero(1).lam, J0_ZERO_1, rtol=1e-15)
        assert_allclose(bessel_zero(5).lam, J0_ZERO_5, rtol=1e-15)

    def test_residual_up_to_200(self):
        for k in range(1, 201):
            assert abs(bessel_j(0, bessel_zero(k).lam)) <= 1e-12

    def test_gaps_approach_pi(self):
        lams = [bessel_zero(k).lam for k in range(1, 121)]
        gaps = np.diff(lams)
        assert abs(gaps[-1] - math.pi) < abs(gaps[0] - math.pi)
        assert abs(gaps[-1] - math.pi) < 1e-4

    def test_mcmahon_seed_accuracy(self):
        lam = bessel_zero(100).lam
        assert abs(lam - (math.pi * 100 - math.pi / 4)) <= 1e-3

    def test_norm_is_half_j1_squared(self):
        for k in (1, 3, 17):
            ev = bessel_zero(k)
            assert_allclose(ev.norm_sq, 0.5 * bessel_j(1, ev.lam) ** 2,
                            rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            bessel_zero(0)
        with pytest.raises(ValueError):
            bessel_zero(-3)


class TestEigenvalueTable:
    def test_matches_bessel_zero(self):
        table = eigenvalue_table(8)
        assert len(table) == 8
        assert table[4].lam == bessel_zero(5).lam
        assert [e.k for e in table] == list(range(1, 9))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            eigenvalue_table(0)


class TestOrthogonality:
    def test_weighted_orthogonality(self):
        """int_0^1 x J0(l_j x) J0(l_k x) dx = delta_jk * norm_sq."""
        table = eigenvalue_table(20)
        rule = gauss_jacobi_rule(360, 1.0, 0.0)
        x = rule.nodes
        basis = bessel_j(0, np.outer([e.lam for e in table], x))
        gram = (basis * rule.weights) @ basis.T
        for j in range(20):
            for k in range(20):
                want = table[j].norm_sq if j == k else 0.0
                assert abs(gram[j, k] - want) <= 1e-10

    def test_finite_expansion_recovery(self):
        table = eigenvalue_table(10)

        def g(x):
            return (0.7 * bessel_j(0, table[1].lam * x)
                    - 0.3 * bessel_j(0, table[6].lam * x))

        got = [fourier_bessel_coeff(g, e) for e in table]
        want = np.zeros(10)
        want[1], want[6] = 0.7, -0.3
        assert_allclose(got, want, atol=1e-11)


class TestProjection:
    def test_against_adaptive_oracle(self):
        """Bracket the package projection with scipy's adaptive quad
        and scipy's own J0."""

        def profile(x):
            return x ** 4 * (1.0 - x) ** 3

        for k in (1, 4, 12, 30):
            ev = bessel_zero(k)
            num, err = adaptive_quad(
                lambda x: x * profile(x) * scipy_j0(ev.lam * x),
                0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
            want = num / ev.norm_sq
            got = fourier_bessel_coeff(profile, ev)
            assert_allclose(got, want, rtol=1e-8)

    def test_roundtrip_at_interior_point(self):
        def profile(x):
            return x ** 4 * (1.0 - x) ** 3

        N = 50
        table = eigenvalue_table(N)
        coeffs = fourier_bessel_table(profile, table)
        lams = np.array([e.lam for e in table])
        assert abs(coeffs @ bessel_j(0, 0.5 * lams) - profile(0.5)) <= 1e-6

    def test_dual_rule_detects_unresolved_oscillation(self):
        ev = bessel_zero(1)
        with pytest.raises(NumericError, match="k=1"):
            fourier_bessel_coeff(lambda x: np.cos(700.0 * x), ev)

    def test_profile_coefficients_decay(self):
        ks = np.arange(10, 51)
        cs = np.array([
            fourier_bessel_coeff(lambda x: x ** 4 * (1 - x) ** 3,
                                 bessel_zero(int(k)))
            for k in ks
        ])
        lams = np.array([bessel_zero(int(k)).lam for k in ks])
        slope = np.polyfit(np.log(lams), np.log(np.abs(cs)), 1)[0]
        assert slope <= -3.2


def old_projection(g, ev):
    """Test-side copy of the former per-mode projection: Gauss-Legendre
    at n = max(64, 8k) and 1.5n nodes, the refined value returned after
    the same 1e-8 agreement gate."""

    def project(n):
        x, w = roots_legendre(n)
        x, w = (x + 1.0) / 2.0, w / 2.0
        return float(w @ (x * g(x) * scipy_j0(ev.lam * x))) / ev.norm_sq

    n = max(64, 8 * ev.k)
    c0, c1 = project(n), project(int(1.5 * n))
    assert abs(c0 - c1) <= 1e-8 * (1.0 + abs(c1))
    return c1


class TestBatchedProjection:
    # every mode at N = 64; at N = 200 a sample, since the old rules
    # take O(n^2) to build and n reaches 2400
    @pytest.mark.parametrize("N,ks", [
        (64, range(1, 65)),
        (200, list(range(1, 9)) + list(range(25, 201, 25)))],
        ids=["N64", "N200"])
    def test_matches_per_mode_projection(self, N, ks):
        def profile(x):
            return x ** 4 * (1.0 - x) ** 3 * (1.0 - 0.3 * x)

        table = eigenvalue_table(N)
        got = fourier_bessel_table(profile, table)
        want = np.array([old_projection(profile, table[k - 1]) for k in ks])
        assert got.shape == (N,)
        assert (np.max(np.abs(got[np.array(ks) - 1] - want))
                <= 1e-12 * np.max(np.abs(got)))

    def test_batch_of_functions(self):
        """g may return one row per node: each column is projected."""
        table = eigenvalue_table(8)
        ts = np.array([-1.0, 0.0, 2.0])

        def rows(x):
            return (x ** 4 * (1.0 - x) ** 3)[:, None] * (1.0 + ts)

        got = fourier_bessel_table(rows, table)
        base = fourier_bessel_table(lambda x: x ** 4 * (1.0 - x) ** 3, table)
        assert got.shape == (8, 3)
        assert_allclose(got, base[:, None] * (1.0 + ts), rtol=1e-13,
                        atol=1e-17)

    def test_names_first_unconverged_mode(self):
        """cos(280 x) is resolved by the coarse rule for the low modes
        only; the error names the first mode whose two values differ."""
        table = eigenvalue_table(10)

        def g(x):
            return np.cos(280.0 * x)

        with pytest.raises(NumericError) as info:
            fourier_bessel_table(g, table)
        named = int(re.search(r"k=(\d+)", str(info.value)).group(1))
        panels = math.ceil(table[-1].lam / math.pi)
        c0, c1 = (on_rule(g, table, *_panel_rule(n))
                  for n in (panels, 2 * panels))
        bad = np.abs(c0 - c1) > 1e-8 * (1.0 + np.abs(c1))
        assert named == 1 + int(np.argmax(bad)) > 1
        assert not bad[:named - 1].any()

    def test_names_mode_of_a_partial_table(self):
        table = eigenvalue_table(30)[9:]
        with pytest.raises(NumericError, match="k=10 "):
            fourier_bessel_table(lambda x: np.cos(2000.0 * x), table)


P = np.polynomial.polynomial


def builtin_poly(q):
    """x^4 (1 - x)^3 q(x) in ascending powers."""
    return P.polymul(P.polymul((0.0, 0.0, 0.0, 0.0, 1.0),
                               (1.0, -3.0, 3.0, -1.0)), q)


def on_rule(g, table, nodes, weights):
    """The quadrature table of ``table`` on the given nodes and weights,
    with no refinement check."""
    return spectrum._project(g, np.array([e.lam for e in table]),
                             np.array([e.norm_sq for e in table]),
                             nodes, weights)


def kink_rule(knots, panels=400, n=20) -> tuple:
    """Nodes and weights of the composite Gauss-Legendre rule on [0, 1]
    with equal panels, also split at the knots inside it, where a
    piecewise-linear g kinks."""
    k = np.asarray(knots, dtype=float)
    edges = np.unique(np.concatenate([np.linspace(0.0, 1.0, panels + 1),
                                      k[(k > 0.0) & (k < 1.0)]]))
    gl = gauss_legendre_rule(n)
    span = np.diff(edges)[:, None]
    return ((edges[:-1, None] + span * gl.nodes).ravel(),
            (span * gl.weights).ravel())


def tabulated(x_grid, seed=11, nt=5):
    rng = np.random.default_rng(seed)
    tg = np.linspace(-1.0, 1.0, nt)
    samples = rng.uniform(-1.0, 1.0, (len(x_grid), nt))
    return Forcing(kind="tabulated", x_grid=tuple(x_grid), t_grid=tuple(tg),
                   samples=tuple(map(tuple, samples)))


def hinge_projection(forcing, table):
    """The solve's closed-form call for a tabulated forcing: each time
    slice as a line plus hinges in x."""
    knots, g0, g1, D = _hinges(forcing.x_grid, np.transpose(forcing.samples),
                               1.0)
    return fourier_bessel_closed(table, np.stack([g0, g1]), knots, D.T)


def mcmahon_table(N):
    """Eigenpairs at McMahon's leading term pi k - pi/4 (Watson 1944,
    sec. 15.53), which are not zeros of J0: the closed form keeps its
    J0(lam) terms, so it holds at any lam."""
    lams = math.pi * np.arange(1, N + 1) - math.pi / 4.0
    return tuple(Eigenvalue(k=k, lam=lam, norm_sq=0.5 * j * j)
                 for k, lam, j in zip(range(1, N + 1), lams,
                                      bessel_j(1, lams)))


class TestClosedForm:
    """The closed-form projection of the solve against the quadrature
    oracle, within the oracle's own refinement tolerance 1e-8 (1 + |c|);
    the observed maxima print under pytest -s."""

    @pytest.mark.parametrize("asymptotic", [False, True],
                             ids=["zeros", "asymptotic"])
    @pytest.mark.parametrize("deg", range(7))
    def test_builtin_against_quadrature_oracle(self, deg, asymptotic):
        q = np.random.default_rng(deg).uniform(-1.0, 1.0, deg + 1)
        table = (mcmahon_table(200) if asymptotic
                 else eigenvalue_table(200))
        poly = builtin_poly(q)
        got = fourier_bessel_closed(table, poly)
        want = fourier_bessel_table(Forcing(space_poly=tuple(q)).spatial,
                                    table)
        gap = np.abs(got - want) / (1.0 + np.abs(want))
        # the moments reach x^{n_max}, n_max = poly.size; the upward
        # recurrence is unstable on the modes with lam < n_max - 1
        low = np.array([ev.lam for ev in table]) < poly.size - 1
        print(f"deg {deg} {'asymptotic' if asymptotic else 'zeros'}: "
              f"max {gap.max():.2e}, on the {low.sum()} modes with "
              f"lam < n_max - 1 {gap[low].max():.2e}")
        assert low.any()
        assert gap.max() <= 1e-8

    @pytest.mark.parametrize("deg", [10, 20, 40])
    def test_high_degree_against_a_fine_rule(self, deg):
        """The modes with lam < n_max - 1 need the downward recurrence:
        taken upward on every mode, these cases are off by 3.6e-8, 1.8e2
        and 2.9e26 in |dc|/(1 + |c|).  The oracle is the table on a
        200-node Gauss-Legendre rule, exact to rounding here."""
        q = np.random.default_rng(deg).uniform(-1.0, 1.0, deg + 1)
        table = eigenvalue_table(40)
        got = fourier_bessel_closed(table, builtin_poly(q))
        rule = gauss_legendre_rule(200)
        want = on_rule(Forcing(space_poly=tuple(q)).spatial, table,
                       rule.nodes, rule.weights)
        gap = np.abs(got - want) / (1.0 + np.abs(want))
        print(f"deg {deg}: max {gap.max():.2e}")
        assert gap.max() <= 1e-8

    @pytest.mark.parametrize("x_grid", [
        np.linspace(0.0, 1.0, 41),
        np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(3).uniform(
            0.0, 1.0, 30)])),
        np.linspace(-0.2, 1.3, 25),
        np.linspace(0.1, 0.85, 17),
        np.array([0.3, 0.31]),
    ], ids=["uniform", "scattered", "beyond", "inside", "two-inside"])
    def test_tabulated_against_quadrature_oracle(self, x_grid):
        """Grids that span [0, 1], with or without samples past it, and
        grids strictly inside it, held constant outside; the oracle rule
        is split at the kinks."""
        forcing = tabulated(x_grid)
        tg = np.asarray(forcing.t_grid)
        table = eigenvalue_table(60)
        got = hinge_projection(forcing, table)
        want = on_rule(lambda x: forcing.value(x[:, None], tg[None, :]),
                       table, *kink_rule(x_grid))
        gap = np.abs(got - want) / (1.0 + np.abs(want))
        print(f"grid {x_grid[0]:.2f}..{x_grid[-1]:.2f} ({x_grid.size}): "
              f"max {gap.max():.2e}")
        assert got.shape == (60, tg.size)
        assert gap.max() <= 1e-8

    @pytest.mark.parametrize("k", [1, 2, 50, 1000])
    def test_mpmath_spot_values(self, k):
        """Against 30-digit moments int_0^1 x^n J0(lam x) dx =
        1F2((n+1)/2; 1, (n+3)/2; -lam^2/4) / (n + 1)."""
        ev = eigenvalue_table(k)[-1]
        poly = builtin_poly((1.0, -0.3))
        got = float(fourier_bessel_closed((ev,), poly)[0])
        with mp.workdps(30):
            lam = mp.mpf(ev.lam)
            total = sum(mp.mpf(float(a)) * mp.hyp1f2(
                mp.mpf(n + 2) / 2, 1, mp.mpf(n + 4) / 2, -lam ** 2 / 4)
                / (n + 2) for n, a in enumerate(poly) if a != 0.0)
            want = float(2 * total / mp.besselj(1, lam) ** 2)
        assert abs(got - want) <= 1e-15 + 1e-12 * abs(want)

    def test_batch_columns_are_separate_projections(self):
        table = eigenvalue_table(30)
        polys = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -2.0]])
        knots, jumps = np.array([0.25, 0.5, 1.0]), np.array(
            [[1.0, 0.0], [0.0, 3.0], [-1.0, -3.0]])
        got = fourier_bessel_closed(table, polys, knots, jumps)
        for j in range(2):
            one = fourier_bessel_closed(table, polys[:, j], knots,
                                        jumps[:, j])
            assert_allclose(got[:, j], one, rtol=1e-14, atol=1e-18)
        with pytest.raises(ValueError, match="knots"):
            fourier_bessel_closed(table, [1.0], [-0.1], [1.0])

    def test_solve_leaves_the_quadrature_table_to_verify(self, monkeypatch,
                                                          default_op):
        def refuse(*args, **kwargs):
            raise AssertionError("the solve ran the quadrature projection")

        monkeypatch.setattr(spectrum, "_project", refuse)
        for forcing in (Forcing(space_poly=(1.0, 0.5)),
                        tabulated(np.linspace(0.0, 1.0, 9))):
            sol = solve_modes(ProblemSpec(op=default_op, T=1.0,
                                          nonlocal_points=((0.6, -1.0),),
                                          forcing=forcing, N=12))
            assert len(sol.modes) == 12


class TestSynthesize:
    """The truncated series sum_k c_k J0(lam_k x), through the synthesis
    matrix of solver.radial_basis."""

    def test_single_mode_at_origin(self, default_solution):
        basis = radial_basis(default_solution, 0.0)
        coeffs = np.zeros(basis.shape[1])
        coeffs[0] = 1.0
        assert (basis @ coeffs)[0] == 1.0

    def test_vanishes_at_boundary(self, default_solution):
        basis = radial_basis(default_solution, 1.0)
        N = basis.shape[1]
        assert abs(basis @ np.ones(N))[0] <= N * 1e-12

    def test_array_input(self, default_solution):
        xs = np.array([0.0, 0.3, 1.0])
        basis = radial_basis(default_solution, xs)
        assert basis.shape == (3, len(default_solution.modes))
        vals = basis[:, :2] @ np.array([0.5, -0.25])
        assert vals.shape == (3,)
        assert_allclose(vals[0], 0.25, rtol=1e-15)

    def test_second_derivative_matches_j2(self, default_solution):
        """The u_xx matrix from Bessel's equation, J1(y)/y - J0(y),
        against (J2 - J0)/2, at the origin's limit and away from it."""
        lams = default_solution.lams
        xs = np.array([0.0, 1e-8, 0.5, 1.0])
        lx = np.outer(xs, lams)
        want = lams ** 2 / 2.0 * (jv(2, lx) - jv(0, lx))
        got = radial_basis(default_solution, xs, 2)
        assert np.all(np.abs(got - want) <= 1e-15 * lams ** 2)
        assert np.array_equal(got[0], -lams ** 2 / 2.0)


class TestInterlacing:
    def test_j1_zeros_interlace(self):
        """Between consecutive zeros of J0 sits exactly one zero of J1."""

        def j1_zero_between(lo, hi):
            flo = bessel_j(1, lo)
            assert flo * bessel_j(1, hi) < 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = bessel_j(1, mid)
                if fm == 0.0:
                    return mid
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        mus = []
        for k in range(1, 11):
            a, b = bessel_zero(k).lam, bessel_zero(k + 1).lam
            mu = j1_zero_between(a + 1e-9, b - 1e-9)
            assert a < mu < b
            mus.append(mu)
        assert_allclose(mus[:3], J1_ZEROS, rtol=1e-12)


class TestDataclasses:
    def test_eigenvalue_validation(self):
        with pytest.raises(ValueError):
            Eigenvalue(k=1, lam=-2.0, norm_sq=0.1)
        with pytest.raises(ValueError):
            Eigenvalue(k=1, lam=2.0, norm_sq=0.0)
        with pytest.raises(ValueError):
            Eigenvalue(k=1.5, lam=2.0, norm_sq=0.1)
        ev = Eigenvalue(k=np.int64(2), lam=5.5, norm_sq=0.3)
        assert type(ev.k) is int and ev.k == 2
        assert ev.lam == 5.5
