"""Mode system, closed-form spot checks, and series evaluation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracbessel.errors import NumericError, SolvabilityError
from fracbessel.fracops import OperatorParams
from fracbessel.quadrature import gauss_jacobi_rule
import fracbessel.solver as solver
from fracbessel.solver import (Forcing, ModeRecord, ProblemSpec,
                               SeriesSolution, TimeCoefficient,
                               compute_Delta_k, compute_Fk, delta_limit,
                               eval_u, eval_u_derivatives,
                               solve_modes)
from fracbessel.specfun import (MLParams, bessel_j, gamma, mittag_leffler,
                                rgamma)
from fracbessel.spectrum import Eigenvalue, bessel_zero, eigenvalue_table

DEFAULT_FORCING = Forcing(kind="separable_builtin", space_poly=(1.0,),
                          time_poly=(1.0, 0.5))


ones = TimeCoefficient(poly=(1.0,))


def single_mode(spec, ev, f_k, tau, phi, psi):
    """The one-mode SeriesSolution of spec with these traces."""
    mode = ModeRecord(ev=ev, f_k=f_k, tau_k=tau, phi_k=phi, psi_k=psi)
    return SeriesSolution(spec=spec, modes=(mode,), tail_estimate=0.0)


def G_k(mode, op, t):
    """Forward particular solution G_k(t) of one mode record under the
    operator op: mode_matrix's forward value of the forced mode, the
    mode with zero traces and the record's f_k."""
    sol = single_mode(small_spec(op), mode.ev, mode.f_k, 0.0, 0.0, 0.0)
    return float(solver.mode_matrix(sol, [t])[0, 0])


def mapped_Gk(mode, op, t, rule):
    """G_k(t) by the tau = t*y mapping onto [0, 1], whose Jacobi weight
    y^{p-1}(1-y)^{a-1} the caller's rule must carry; converges slowly
    in lambda, so it serves only as a cross-check."""
    a, p = op.alpha1, op.p
    y = rule.nodes
    wpow = 1.0 - y ** p
    smooth = (wpow / (1.0 - y)) ** (a - 1.0)
    tp = t ** (p * a)
    kern = mittag_leffler(MLParams(alpha=a, beta=a),
                          -(mode.ev.lam ** 2 / p ** a) * tp * wpow ** a)
    fv = np.asarray(mode.f_k(t * y), dtype=float)
    return tp * p ** (1.0 - a) * float(rule.weights @ (kern * fv * smooth))


def small_spec(op, N=6, points=((0.6, -1.0),), forcing=DEFAULT_FORCING):
    return ProblemSpec(op=op, T=1.0, nonlocal_points=points,
                       forcing=forcing, N=N)


class TestForcing:
    def test_builtin_value_is_separable(self):
        f = DEFAULT_FORCING
        x, t = 0.5, 0.25
        assert_allclose(f.value(x, t), f.spatial(x) * f.time_factor(t),
                        rtol=1e-15)
        assert f.hypothesis_status() == "satisfied"

    def test_builtin_spatial_vanishing(self):
        f = DEFAULT_FORCING
        assert f.spatial(0.0) == 0.0
        assert f.spatial(1.0) == 0.0

    def test_tabulated_bilinear(self):
        f = Forcing(kind="tabulated", x_grid=(0.0, 0.5, 1.0),
                    t_grid=(-1.0, 0.0, 1.0),
                    samples=((0.0, 1.0, 2.0), (3.0, 4.0, 5.0),
                             (6.0, 7.0, 8.0)))
        assert f.hypothesis_status() == "unverifiable"
        # grid nodes reproduce samples
        assert_allclose(f.value(0.5, 0.0), 4.0, rtol=1e-15)
        assert_allclose(f.value(1.0, 1.0), 8.0, rtol=1e-15)
        # cell centre is the average of its four corners
        assert_allclose(f.value(0.25, -0.5), (0.0 + 1.0 + 3.0 + 4.0) / 4.0,
                        rtol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            Forcing(kind="mystery")
        with pytest.raises(ValueError):
            Forcing(kind="separable_builtin", space_poly=())
        with pytest.raises(ValueError):
            Forcing(kind="tabulated", x_grid=(0.0, 1.0))
        with pytest.raises(ValueError):
            Forcing(kind="tabulated", x_grid=(0.0, 0.0),
                    t_grid=(-1.0, 1.0), samples=((1.0, 2.0), (3.0, 4.0)))
        with pytest.raises(ValueError):
            Forcing(kind="tabulated", x_grid=(0.0, 1.0),
                    t_grid=(-1.0, 1.0), samples=((1.0, 2.0),))


class TestProblemSpec:
    def test_nonlocal_ordering_message(self, default_op):
        with pytest.raises(ValueError, match=r"ordering fails at indices \[1\]"):
            small_spec(default_op, points=((0.3, -0.2), (0.4, -0.6)))

    def test_xi_domain(self, default_op):
        with pytest.raises(ValueError, match="xi_1"):
            small_spec(default_op, points=((0.3, 0.2),))
        with pytest.raises(ValueError, match="xi_1"):
            small_spec(default_op, points=((0.3, -2.0),))

    def test_misc_validation(self, default_op):
        with pytest.raises(ValueError):
            ProblemSpec(op=default_op, T=0.0, nonlocal_points=((0.6, -1.0),),
                        forcing=DEFAULT_FORCING)
        with pytest.raises(ValueError):
            small_spec(default_op, points=())
        for n in (0, 7.9, True, math.inf):
            with pytest.raises(ValueError):
                small_spec(default_op, N=n)

    def test_tabulated_grid_must_cover_domain(self, default_op):
        narrow = Forcing(kind="tabulated", x_grid=(0.0, 1.0),
                         t_grid=(-0.5, 0.5), samples=((1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="cover"):
            small_spec(default_op, forcing=narrow)


class TestGkClosedForms:
    def test_zero_at_zero(self, default_op):
        mode = ModeRecord(ev=bessel_zero(3), f_k=ones)
        assert G_k(mode, default_op, 0.0) == 0.0

    def test_constant_forcing_relaxation(self, default_op):
        """f_k = 1 integrates to (1 - E_{a,1}(-cb t^{pa})) / lam^2."""
        op = default_op
        ev = bessel_zero(3)
        mode = ModeRecord(ev=ev, f_k=ones)
        cb = ev.lam ** 2 / op.p ** op.alpha1
        for t in (0.15, 0.6, 1.0):
            E = float(mittag_leffler(MLParams(alpha=op.alpha1, beta=1.0),
                                     -cb * t ** (op.p * op.alpha1)))
            want = (1.0 - E) / ev.lam ** 2
            assert_allclose(G_k(mode, op, t), want, rtol=1e-6,
                            err_msg=f"t={t}")

    def test_small_eigenvalue_limit(self, default_op):
        op = default_op
        ev = Eigenvalue(k=1, lam=1e-4, norm_sq=0.5)
        mode = ModeRecord(ev=ev, f_k=ones)
        t = 0.8
        pa = op.p * op.alpha1
        want = t ** pa / (op.p ** op.alpha1 * gamma(op.alpha1 + 1.0))
        assert_allclose(G_k(mode, op, t), want, rtol=1e-6)

    def test_alternate_quadrature_route(self, default_op):
        op = default_op
        spec = small_spec(op)
        sol = solve_modes(spec)
        m = sol.modes[0]
        rule = gauss_jacobi_rule(320, op.p - 1.0, op.alpha1 - 1.0)
        assert_allclose(mapped_Gk(m, op, 0.35, rule), G_k(m, op, 0.35),
                        rtol=1e-5)


class TestFk:
    def test_against_in_test_assembly(self, default_op):
        """Rebuild F_k here from its definition with a plain Jacobi rule
        on the mapped history integral; the package uses scaled panels."""
        op = default_op
        spec = small_spec(op)
        sol = solve_modes(spec)
        d2, g2 = op.delta2, op.gamma2
        rule = gauss_jacobi_rule(320, d2 - g2 + 1.0, 0.0)
        kernel = MLParams(alpha=d2, beta=d2 - g2 + 2.0)
        for idx in (0, 2):
            m = sol.modes[idx]
            total = G_k(m, op, spec.T)
            for p_i, xi in spec.nonlocal_points:
                x = rule.nodes
                kern = mittag_leffler(kernel,
                                      -m.ev.lam ** 2 * (-xi) ** d2 * x ** d2)
                fv = np.asarray(m.f_k(xi * (1.0 - x)), dtype=float)
                total -= p_i * (-xi) ** (d2 - g2 + 2.0) * float(
                    rule.weights @ (kern * fv))
            assert_allclose(compute_Fk(m, spec), total, rtol=1e-7,
                            err_msg=f"k={m.ev.k}")

    def test_quad_route_where_weights_coincide(self):
        """At this parameter point the mapped terminal and history
        integrals carry the same Jacobi pair, so one rule assembles the
        whole of F_k here from its definition."""
        op = OperatorParams(1.0, -0.3, 1.3, 1.5, 1.0)
        spec = small_spec(op, N=4)
        sol = solve_modes(spec)
        m = sol.modes[1]
        d2, g2 = op.delta2, op.gamma2
        pair = (d2 - g2 + 1.0, 0.0)
        assert pair[0] == pytest.approx(op.p - 1.0)
        rule = gauss_jacobi_rule(192, *pair)
        total = mapped_Gk(m, op, spec.T, rule)
        x = rule.nodes
        for p_i, xi in spec.nonlocal_points:
            kern = mittag_leffler(MLParams(alpha=d2, beta=d2 - g2 + 2.0),
                                  -m.ev.lam ** 2 * (-xi) ** d2 * x ** d2)
            fv = np.asarray(m.f_k(xi * (1.0 - x)), dtype=float)
            total -= p_i * (-xi) ** (d2 - g2 + 2.0) * float(
                rule.weights @ (kern * fv))
        assert_allclose(total, compute_Fk(m, spec), rtol=1e-6)


class TestDeltaK:
    def test_small_eigenvalue_limit(self, default_op):
        spec = small_spec(default_op)
        ev = Eigenvalue(k=1, lam=1e-8, norm_sq=0.5)
        mode = ModeRecord(ev=ev, f_k=ones)
        want = sum(p for p, _ in spec.nonlocal_points) - 1.0
        assert_allclose(compute_Delta_k(mode, spec), want, atol=1e-10)

    def test_limit_value_and_approach(self, default_op):
        spec = small_spec(default_op)
        L = delta_limit(spec)
        op = default_op
        want = 0.6 / (op.p ** op.alpha1 * gamma(op.alpha1)
                      * gamma(2.0 - op.delta2))
        assert_allclose(L, want, rtol=1e-14)
        eigs = eigenvalue_table(100)
        gaps = {}
        for k in (10, 100):
            mode = ModeRecord(ev=eigs[k - 1], f_k=ones)
            gaps[k] = abs(compute_Delta_k(mode, spec) - L)
        assert gaps[100] < gaps[10]
        # the approach is quadratic in 1/lam
        ratio = gaps[100] / gaps[10]
        quad_ratio = (eigs[9].lam / eigs[99].lam) ** 2
        assert ratio < 5.0 * quad_ratio
        assert gaps[100] <= 1e-3

    def test_limit_carries_history_power(self, default_op):
        """Inside the interval the limit keeps the (-xi)^{1-delta2}
        power that the shift identity puts in the bracket."""
        op = default_op
        spec = small_spec(op, points=((0.6, -0.6),))
        want = 0.6 * 0.6 ** (1.0 - op.delta2) / (
            op.p ** op.alpha1 * gamma(op.alpha1) * gamma(2.0 - op.delta2))
        assert_allclose(delta_limit(spec), want, rtol=1e-13)

    def test_limit_rejects_zero_history_time(self, default_op):
        """A point at xi = 0 is accepted: its bracket is E_{d2,1}(0) = 1
        for every k, so it adds its weight p_i to the limit, and Delta_k
        still approaches that limit."""
        spec = small_spec(default_op, points=((0.5, -0.5), (0.4, 0.0)))
        alone = small_spec(default_op, points=((0.5, -0.5),))
        assert_allclose(delta_limit(spec), delta_limit(alone) + 0.4,
                        rtol=1e-15)
        L = delta_limit(spec)
        eigs = eigenvalue_table(100)
        gaps = [abs(compute_Delta_k(ModeRecord(ev=eigs[k - 1], f_k=ones),
                                    spec) - L)
                for k in (10, 100)]
        assert gaps[1] < gaps[0]
        assert gaps[1] <= 1e-3

    def test_limit_at_delta2_two(self):
        """At delta2 = 2 the bracket holds E_{2,1}(-x^2) = cos(x), so a
        point with xi < 0 has no limit: a NumericError.  A point at
        xi = 0 still adds its weight."""
        op = OperatorParams(alpha1=0.7, theta=0.2, alpha2=2.0, beta2=2.0,
                            mu=0.5)
        assert op.delta2 == 2.0
        with pytest.raises(NumericError, match="no large-k limit"):
            delta_limit(small_spec(op))
        assert delta_limit(small_spec(op, points=((0.4, 0.0),))) == 0.4


class TestTerminalCondition:
    def test_zero_weight_reduces_to_final_value_problem(self, default_op):
        """p_1 = 0 wipes the history sum: Delta_k is minus the forward
        relaxation factor and u(., T) must vanish."""
        op = default_op
        spec = small_spec(op, N=4, points=((0.0, -0.5),))
        sol = solve_modes(spec)
        for m in sol.modes:
            cb = m.ev.lam ** 2 / op.p ** op.alpha1
            E = float(mittag_leffler(MLParams(alpha=op.alpha1, beta=1.0),
                                     -cb * spec.T ** (op.p * op.alpha1)))
            assert_allclose(m.Delta_k, -E, rtol=1e-13)
            # with no weighted history point F_k is the forced mode's
            # value G_k(T) and Delta_k is -E, each from mode_matrix's
            # forward kernels, so tau_k is -G_k(T) / E bit for bit
            assert m.tau_k == -G_k(m, op, spec.T) / E
        scale = abs(eval_u(sol, 0.5, 0.5 * spec.T))
        for x in (0.3, 0.7):
            assert abs(eval_u(sol, x, spec.T)) <= 1e-10 * scale


class TestZeroForcing:
    def test_solution_is_identically_zero(self, default_op):
        spec = small_spec(default_op, N=8,
                          forcing=Forcing(kind="separable_builtin",
                                          space_poly=(0.0,),
                                          time_poly=(1.0,)))
        sol = solve_modes(spec)
        assert all(m.tau_k == 0.0 for m in sol.modes)
        assert sol.tail_estimate == 0.0
        xs = np.linspace(0.0, 1.0, 11)
        for t in (-0.8, -0.2, 0.3, 1.0):
            assert np.max(np.abs(eval_u(sol, xs, t))) == 0.0


BATCH_MODES = {
    "builtin": [TimeCoefficient(scale=s, poly=(1.0, 0.5, -0.25))
                for s in (0.3, -1.7, 2.0 / 3.0)],
    "tabulated": [TimeCoefficient(t_grid=(-1.0, -0.4, 0.1, 0.7, 1.0),
                                  values=row)
                  for row in ((0.2, -1.0, 0.5, 3.0, 1.0),
                              (1.0, 1.0, 0.0, -0.3, 2.0),
                              (-0.7, 0.9, 1.3, 0.1, -2.2))],
}


class TestTimeCoefficientBatch:
    """A batch called at t gives one row per mode, of shape
    (modes,) + shape(t), each row with the bits of its mode's own call."""

    @pytest.mark.parametrize("kind", sorted(BATCH_MODES))
    @pytest.mark.parametrize("t", [0.37, [-0.8, 0.05, 0.9], [-1.3, 0.25],
                                   [[-0.5, 0.0], [0.6, 1.2]]])
    def test_rows_match_single_mode_calls(self, kind, t):
        modes = BATCH_MODES[kind]
        got = TimeCoefficient.stack(modes)(t)
        assert got.shape == (len(modes),) + np.shape(t)
        for row, mode in zip(got, modes):
            assert np.array_equal(row, mode(t))

    @pytest.mark.parametrize("kind", sorted(BATCH_MODES))
    def test_selected_modes(self, kind):
        modes = BATCH_MODES[kind]
        got = TimeCoefficient.stack(modes)[1:](0.3)
        assert np.array_equal(got, [m(0.3) for m in modes[1:]])


def tabulated_forcing():
    """x^4 (1-x)^3 (1 + t/2) sampled on a 6 x 7 grid over [0, 1] x [-1, 1]."""
    xs, ts = np.linspace(0.0, 1.0, 6), np.linspace(-1.0, 1.0, 7)
    f = xs[:, None] ** 4 * (1.0 - xs[:, None]) ** 3 * (1.0 + 0.5 * ts)
    return Forcing(kind="tabulated", x_grid=tuple(xs), t_grid=tuple(ts),
                   samples=tuple(map(tuple, f)))


class TestOneCallPerAlpha:
    """Each evaluation makes one mittag_leffler call per alpha that it
    needs, with a beta per point, and passes the points that one call per
    kernel passed: each mode at each argument of each kernel."""

    @pytest.fixture(params=["builtin", "tabulated"])
    def case(self, request, default_op, monkeypatch):
        forcing = (DEFAULT_FORCING if request.param == "builtin"
                   else tabulated_forcing())
        spec = small_spec(default_op, N=5, forcing=forcing,
                          points=((0.3, -0.8), (0.6, -0.5), (0.2, 0.0)))
        # the solve builds the forward hinges' kernel table up to W = T^p,
        # which covers every later evaluation
        sol = solve_modes(spec)
        monkeypatch.setattr(solver._KernelTable, "_grow",
                            lambda *_: pytest.fail("kernel table grew"))
        calls = []
        ml = solver.mittag_leffler

        def counted(p, z):
            calls.append((p.alpha, np.size(z)))
            return ml(p, z)

        monkeypatch.setattr(solver, "mittag_leffler", counted)
        return spec, sol, calls

    @staticmethod
    def kernels(spec, W):
        """Kernel arguments per mode of the convolution at each W on the
        backward side, and the kernels of one W otherwise: a polynomial's
        non-zero terms, or a tabulated line's two plus one per knot of
        the negative times below W."""
        if spec.forcing.is_builtin:
            return np.count_nonzero(spec.forcing.time_poly), 0
        knots = -np.array([t for t in spec.forcing.t_grid if t < 0.0])
        return 2, int(np.count_nonzero(np.asarray(W)[:, None] > knots))

    def test_mode_matrix(self, case):
        spec, sol, calls = case
        n, op = spec.N, spec.op
        ts = np.array([-0.9, -0.45, -0.1, 0.0, 0.2, 0.65, 1.0])
        for sel, order in ((ts, 0.0), (ts[ts > 0.0], 0.0), (ts[ts < 0.0], 0.0),
                           (ts[ts <= 0.0], 2.0 - op.gamma2), (ts[:0], 0.0),
                           (ts[ts == 0.0], 0.0)):
            calls.clear()
            solver.mode_matrix(sol, sel, order=order)
            fwd, bwd = sel[sel > 0.0], -sel[sel < 0.0]
            terms, kinks = self.kernels(spec, bwd)
            want = []
            if fwd.size:
                want.append((op.alpha1, n * fwd.size * (1 + terms)))
            if bwd.size:
                want.append((op.delta2, n * (bwd.size * (2 + terms) + kinks)))
            assert sorted(calls) == sorted(want)

    def test_delta_and_forcing_terms(self, case):
        spec, sol, calls = case
        n, op = spec.N, spec.op
        # a point at xi = 0 reads the trace and asks for no kernel
        W = [-xi for _, xi in spec.nonlocal_points if xi != 0.0]
        compute_Delta_k(sol.modes, spec)
        assert sorted(calls) == sorted(
            [(op.delta2, 2 * n * len(W)), (op.alpha1, n)])
        calls.clear()
        compute_Fk(sol.modes, spec)
        terms, kinks = self.kernels(spec, W)
        assert sorted(calls) == sorted(
            [(op.alpha1, n * terms), (op.delta2, n * (len(W) * terms + kinks))])


class TestDefects:
    """Delta_k and F_k are what the non-local condition
    sum_i p_i (I^a u)(xi_i) = u(T) leaves of a mode's free part and of
    its forced part, read bit for bit from mode_matrix of one-mode
    solutions: Delta_k of the free mode (tau = phi = 1,
    psi = -lam^2 / (p^a1 Gamma(a1)), no forcing), F_k minus that of the
    forced mode (zero traces, the mode's f_k)."""

    @pytest.mark.parametrize("kind", ["builtin", "tabulated"])
    @pytest.mark.parametrize("points", [
        ((0.3, -0.7), (0.5, -0.25)),
        ((0.0, -0.6), (0.3, -0.5), (0.4, 0.0))])
    def test_defect_of_free_and_forced_mode(self, default_op, kind, points):
        forcing = DEFAULT_FORCING if kind == "builtin" else tabulated_forcing()
        spec = small_spec(default_op, N=12, points=points, forcing=forcing)
        op = spec.op
        a = op.hilfer_inner_order
        pa = op.p ** op.alpha1 * gamma(op.alpha1)
        zero = TimeCoefficient(scale=0.0, poly=(0.0,))

        def defect(sol):
            hist = sum(p_i * solver.mode_matrix(sol, [xi], order=a)[0, 0]
                       for p_i, xi in points)
            return hist - solver.mode_matrix(sol, [spec.T])[0, 0]

        eigs = eigenvalue_table(spec.N)
        f_ks = solver._mode_coefficient_callables(spec, eigs)
        modes = [ModeRecord(ev=ev, f_k=f_k) for ev, f_k in zip(eigs, f_ks)]
        deltas = compute_Delta_k(modes, spec)
        Fs = compute_Fk(modes, spec)
        for ev, f_k, d, F in zip(eigs, f_ks, deltas, Fs):
            free = single_mode(spec, ev, zero, 1.0, 1.0, -(ev.lam ** 2 / pa))
            forced = single_mode(spec, ev, f_k, 0.0, 0.0, 0.0)
            assert d == defect(free), f"Delta_{ev.k}"
            assert F == -defect(forced), f"F_{ev.k}"


class TestSolveInvariants:
    def test_coefficient_relations(self, default_solution):
        sol = default_solution
        op = sol.spec.op
        coef = 1.0 / (op.p ** op.alpha1 * gamma(op.alpha1))
        for m in sol.modes:
            assert m.phi_k == m.tau_k
            assert_allclose(m.psi_k, -m.ev.lam ** 2 * coef * m.tau_k,
                            rtol=1e-15)
            assert_allclose(m.tau_k, m.F_k / m.Delta_k, rtol=1e-15)
            assert math.isfinite(m.Delta_k) and m.Delta_k != 0.0

    def test_structure(self, default_solution):
        sol = default_solution
        assert len(sol.modes) == sol.spec.N
        assert [m.ev.k for m in sol.modes] == list(range(1, sol.spec.N + 1))
        assert np.all(np.diff(sol.lams) > 0.0)
        assert math.isfinite(sol.tail_estimate)
        assert sol.tail_estimate >= 0.0

    def test_mode_arrays_are_read_only(self, default_solution):
        sol = default_solution
        for name, attr in (("lams", lambda m: m.ev.lam),
                           ("taus", lambda m: m.tau_k),
                           ("phis", lambda m: m.phi_k),
                           ("psis", lambda m: m.psi_k)):
            arr = getattr(sol, name)
            assert not arr.flags.writeable, name
            assert arr.tolist() == [attr(m) for m in sol.modes], name
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert sol.lams is sol.lams  # built once, not on every access
        with pytest.raises(AttributeError):
            sol.taus = np.zeros(sol.spec.N)

    def test_modes_must_stay_sorted(self, default_op):
        m2 = ModeRecord(ev=bessel_zero(2), f_k=ones)
        m1 = ModeRecord(ev=bessel_zero(1), f_k=ones)
        spec = small_spec(default_op, N=2)
        with pytest.raises(ValueError):
            SeriesSolution(spec=spec, modes=(m2, m1), tail_estimate=0.0)

    def test_solvability_error_names_first_bad_mode(self, default_op,
                                                    monkeypatch):
        monkeypatch.setattr(solver, "DELTA_FLOOR", 10.0)
        spec = ProblemSpec(op=default_op, T=1.0,
                           nonlocal_points=((0.6, -1.0),),
                           forcing=DEFAULT_FORCING, N=4)
        with pytest.raises(SolvabilityError, match="k=1") as ei:
            solve_modes(spec)
        assert ei.value.k == 1


class TestEvalU:
    def test_interface_traces(self, default_solution):
        """u is genuinely singular at t -> 0-: the solution behaves as
        (-t)^{gamma2-2} there and only the weighted limit is finite.
        Both one-sided traces must recover sum tau_k J0(lam_k x)."""
        sol = default_solution
        op = sol.spec.op
        g2 = op.gamma2
        x = 0.5
        base = float(sol.taus @ bessel_j(0, sol.lams * x))
        fwd = eval_u(sol, x, 1e-8)
        assert_allclose(fwd, base, rtol=1e-3)
        q = 1e-6
        back = eval_u(sol, x, -q) * q ** (2.0 - g2)
        assert_allclose(back, base * rgamma(g2 - 1.0), rtol=1e-3)

    def test_boundary_condition(self, default_solution):
        sol = default_solution
        scale = abs(eval_u(sol, 0.0, 0.5))
        for t in (-0.7, -0.1, 0.4, 1.0):
            assert abs(eval_u(sol, 1.0, t)) <= sol.spec.N * 1e-12 * max(
                1.0, scale)

    def test_axis_flux_condition(self, default_solution):
        # lim x u_x = 0 at the axis
        sol = default_solution
        t = 0.5
        scale = abs(eval_u(sol, 0.0, t))
        for x in (1e-3, 1e-2):
            ux, _ = eval_u_derivatives(sol, x, t)
            assert abs(x * ux) <= 1e-4 * scale

    def test_vectorized_matches_scalar(self, default_solution):
        sol = default_solution
        xs = np.array([0.0, 0.3, 0.8, 1.0])
        t = -0.4
        vec = eval_u(sol, xs, t)
        assert vec.shape == (4,)
        for x, v in zip(xs, vec):
            assert eval_u(sol, float(x), t) == pytest.approx(v, rel=1e-14)

    def test_domain_errors(self, default_solution):
        sol = default_solution
        with pytest.raises(ValueError):
            eval_u(sol, 1.5, 0.1)
        with pytest.raises(ValueError):
            eval_u(sol, 0.5, 2.0 * sol.spec.T)


class TestDerivatives:
    def test_radial_ode_identity_single_mode(self, default_op):
        """With one mode, u_xx + u_x / x = -lam^2 u pointwise."""
        spec = small_spec(default_op, N=1)
        sol = solve_modes(spec)
        lam = sol.lams[0]
        for x, t in ((0.4, 0.3), (0.7, -0.6)):
            u = eval_u(sol, x, t)
            ux, uxx = eval_u_derivatives(sol, x, t)
            resid = uxx + ux / x + lam ** 2 * u
            assert abs(resid) <= 1e-10 * lam ** 2 * abs(u)

    def test_finite_difference_cross_check(self, default_solution):
        sol = default_solution
        x, t = 0.5, 0.5
        ux, uxx = eval_u_derivatives(sol, x, t)
        h = 1e-5
        fd_x = (eval_u(sol, x + h, t) - eval_u(sol, x - h, t)) / (2 * h)
        assert_allclose(ux, fd_x, rtol=1e-4)
        h2 = 1e-4
        fd_xx = (eval_u(sol, x + h2, t) - 2 * eval_u(sol, x, t)
                 + eval_u(sol, x - h2, t)) / h2 ** 2
        assert_allclose(uxx, fd_xx, rtol=1e-4)

    @staticmethod
    def _basis_one_order(sol, x, order):
        """The synthesis matrix of one order from its own J0 and J1
        calls, as radial_basis computed it before the orders shared
        them."""
        lx = np.outer(np.atleast_1d(np.asarray(x, dtype=float)), sol.lams)
        if order == 0:
            return bessel_j(0, lx)
        if order == 1:
            return -sol.lams * bessel_j(1, lx)
        j1_over = np.divide(bessel_j(1, lx), lx, out=np.full_like(lx, 0.5),
                            where=lx > 0.0)
        return sol.lams ** 2 * (j1_over - bessel_j(0, lx))

    def test_shared_bessel_arrays_keep_the_bits(self, default_solution):
        """radial_bases, radial_basis, eval_u and eval_u_derivatives give
        the bits of one order at a time, x = 0 included."""
        sol = default_solution
        xs = np.linspace(0.0, 1.0, 41)
        ts = [-0.7, 0.0, 0.35]
        vals = solver.mode_matrix(sol, ts)
        want = [self._basis_one_order(sol, xs, k) for k in (0, 1, 2)]
        got = solver.radial_bases(sol, xs, (0, 1, 2))
        for k in (0, 1, 2):
            assert np.array_equal(got[k], want[k])
            assert np.array_equal(solver.radial_basis(sol, xs, k), want[k])
            assert np.array_equal(got[k] @ vals, want[k] @ vals)
        for i, t in enumerate(ts):
            assert np.array_equal(eval_u(sol, xs, t), want[0] @ vals[:, i])
            ux, uxx = eval_u_derivatives(sol, xs, t)
            assert np.array_equal(ux, want[1] @ vals[:, i])
            assert np.array_equal(uxx, want[2] @ vals[:, i])
        # an order outside 0-2 used to return the u_xx matrix
        with pytest.raises(ValueError, match="orders must be 0, 1 or 2"):
            solver.radial_basis(sol, xs, 3)

    def test_shared_bessel_arrays_count(self, default_solution,
                                        monkeypatch):
        """u, u_x and u_xx at one time take two Bessel arrays: J0 for
        eval_u, then J1 for eval_u_derivatives, which reuses that J0;
        later times on the same grid take none."""
        orders = []
        real = solver.bessel_j

        def counted(order, x):
            orders.append(order)
            return real(order, x)

        monkeypatch.setattr(solver, "bessel_j", counted)
        sol = replace(default_solution)  # a fresh memo
        xs = np.linspace(0.0, 1.0, 11)
        for t in (0.5, -0.25):
            eval_u(sol, xs, t)
            eval_u_derivatives(sol, xs, t)
        assert sorted(orders) == [0, 1]

    def test_memo_returns_the_bits_of_fresh_calls(self, default_solution,
                                                  monkeypatch):
        """A repeated grid, a changed grid and a changed t give the bits
        of a solution with nothing kept, and the kept arrays are
        read-only; eval_u and eval_u_derivatives at one t make one
        mode_matrix call."""
        sol = replace(default_solution)
        calls = []
        real = solver.mode_matrix

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "mode_matrix", counted)
        xs, ys = np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 9) ** 2
        for x, t in ((xs, 0.4), (xs, 0.4), (ys, 0.4), (ys, -0.6),
                     (xs, -0.6), (xs, 0.0)):
            fresh = replace(default_solution)
            assert np.array_equal(eval_u(sol, x, t), eval_u(fresh, x, t))
            for got, want in zip(eval_u_derivatives(sol, x, t),
                                 eval_u_derivatives(fresh, x, t)):
                assert np.array_equal(got, want)
        assert len(calls) == 3 + 6  # t = 0.4, -0.6, 0.0 here, 6 there
        basis = solver.radial_basis(sol, xs)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    def test_memo_keeps_the_derivative_bases(self, default_solution):
        """A second radial_bases call on the same grid returns the kept
        matrices themselves, bit-identical to fresh ones and read-only,
        lam x included; a new grid replaces every one of them."""
        sol = replace(default_solution)
        xs, ys = np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 9) ** 2
        first = solver.radial_bases(sol, xs, (0, 1, 2))
        again = solver.radial_bases(sol, xs.copy(), (2, 1, 0))
        for k in (0, 1, 2):
            assert again[2 - k] is first[k]
            assert np.array_equal(first[k],
                                  self._basis_one_order(sol, xs, k))
            assert not first[k].flags.writeable
        kept = sol._memo["bases"]
        assert not kept["lx"].flags.writeable
        assert np.array_equal(kept["lx"], np.outer(xs, sol.lams))
        other = solver.radial_bases(sol, ys, (0, 1, 2))
        assert sol._memo["bases"] is not kept
        assert np.array_equal(sol._memo["bases"]["x"], ys)
        for k in (0, 1, 2):
            assert other[k] is not first[k]
            assert np.array_equal(other[k],
                                  self._basis_one_order(sol, ys, k))

    def test_axis_values(self, default_solution):
        ux, uxx = eval_u_derivatives(default_solution, 0.0, 0.5)
        assert ux == 0.0
        assert math.isfinite(uxx)
