"""The verification layer itself: report structure, edge paths, and the
full default-instance run."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline

from fracbessel import verify
from fracbessel.errors import NumericError
from fracbessel.fracops import OperatorParams
from fracbessel.solver import Forcing, ProblemSpec, delta_limit, solve_modes
from fracbessel.specfun import MLParams, mittag_leffler, rgamma
from fracbessel.spectrum import bessel_zero
from fracbessel.verify import (CheckResult, VerificationReport,
                               check_boundary, check_decay_rates,
                               check_delta_asymptote, check_gluing,
                               check_mode_odes, check_nonlocal,
                               verify_solution, weighted_spline_candidate)

STRUCTURAL_ROWS = {
    "boundary_wall_value", "boundary_axis_flux",
    "gluing_coefficient_identities", "gluing_value_trace",
    "gluing_derivative_trace", "gluing_derivative_two_sided",
    "nonlocal_identity_route", "nonlocal_oracle_route",
    "nonlocal_route_agreement",
    "delta_gap_monotone", "delta_gap_rate",
    "decay_forcing_coeff", "decay_primary_coeff",
    "decay_weighted_trace_coeff", "decay_derivative_trace_coeff",
    "coefficient_tail",
}


class TestFullDefaultRun:
    def test_everything_passes(self, default_report):
        failed = [c.name for c in default_report.checks if not c.passed]
        assert default_report.overall, f"failing rows: {failed}"

    def test_row_inventory(self, default_report):
        names = [c.name for c in default_report.checks]
        assert len(names) == len(set(names))
        mode_rows = {n for n in names if n.startswith("mode_ode_")}
        assert mode_rows == (
            {f"mode_ode_forward_k{k:02d}" for k in range(1, 11)}
            | {f"mode_ode_backward_k{k:02d}" for k in range(1, 11)})
        assert set(names) - mode_rows == STRUCTURAL_ROWS

    def test_serialization(self, default_report):
        doc = default_report.as_dict()
        assert doc["overall"] is True
        assert len(doc["checks"]) == len(default_report.checks)
        for row in doc["checks"]:
            assert set(row) == {"name", "target_value", "measured_value",
                                "tolerance", "passed", "note"}
        # must be plain JSON types throughout
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text) == doc

    def test_measurements_are_meaningful(self, default_report):
        by_name = {c.name: c for c in default_report.checks}
        # the two-sided derivative row measures a defect-model mismatch,
        # not a raw zero; its note must say what the raw mismatch was
        row = by_name["gluing_derivative_two_sided"]
        assert "defect" in row.note
        assert row.measured_value < row.tolerance
        # the nonlocal routes carry a genuinely small residual
        assert by_name["nonlocal_oracle_route"].measured_value <= 1e-5
        # decay slopes came from a real fit at N = 50
        assert by_name["decay_primary_coeff"].measured_value < -3.2


class TestConvolutionAccuracyRegressions:
    """Inputs that failed their rows, at unchanged gates, while the mode
    convolutions were computed by panel quadrature: its ~1e-7 relative
    error, not the gates, was at fault."""

    @pytest.mark.parametrize("op_args,N,time_poly", [
        ((0.7, 0.2, 1.5, 1.2, 0.5), 10, (2.0, 1.0)),
        ((0.5, -0.3, 1.9, 1.6, 0.3), 30, (1.0, 0.5)),
    ])
    def test_nonlocal_route_agreement(self, op_args, N, time_poly):
        spec = ProblemSpec(
            op=OperatorParams(*op_args), T=1.0,
            nonlocal_points=((0.6, -1.0),),
            forcing=Forcing(kind="separable_builtin", space_poly=(1.0,),
                            time_poly=time_poly), N=N)
        rows = {c.name: c for c in check_nonlocal(solve_modes(spec))}
        row = rows["nonlocal_route_agreement"]
        assert row.tolerance == pytest.approx(1e-10)
        assert row.passed, f"{row.measured_value:.3e} > {row.tolerance:.1e}"

    def test_tabulated_backward_mode_ode(self, default_op):
        """x^4 (1-x)^3 (1 + 0.5 sin 2t) on 41 x 33 samples: the
        piecewise-linear f_k has a kink at every sample time."""
        xg = np.linspace(0.0, 1.0, 41)
        tg = np.linspace(-1.0, 1.0, 33)
        samples = (xg[:, None] ** 4 * (1.0 - xg[:, None]) ** 3
                   * (1.0 + 0.5 * np.sin(2.0 * tg[None, :])))
        spec = ProblemSpec(
            op=default_op, T=1.0, nonlocal_points=((0.6, -1.0),),
            forcing=Forcing(kind="tabulated", x_grid=tuple(xg),
                            t_grid=tuple(tg),
                            samples=tuple(map(tuple, samples))), N=30)
        rows = {c.name: c for c in check_mode_odes(solve_modes(spec), 1)}
        row = rows["mode_ode_backward_k01"]
        assert row.tolerance == 1e-3
        assert row.passed, f"{row.measured_value:.3e} > {row.tolerance:.1e}"


class TestCustomTolerances:
    def test_boundary_gate_is_honored(self, default_solution, monkeypatch):
        monkeypatch.setattr(verify, "BOUNDARY_TOL", 1e-30)
        rows = check_boundary(default_solution)
        assert any(not c.passed for c in rows)
        for c in rows:
            assert c.tolerance == pytest.approx(1e-30)


class TestZeroForcing:
    def test_trivial_solution_verifies(self, default_op):
        spec = ProblemSpec(
            op=default_op, T=1.0, nonlocal_points=((0.6, -1.0),),
            forcing=Forcing(kind="separable_builtin", space_poly=(0.0,),
                            time_poly=(1.0,)), N=8)
        report = verify_solution(solve_modes(spec), k_max=2)
        assert report.overall
        by_name = {c.name: c for c in report.checks}
        assert by_name["gluing_coefficient_identities"].measured_value == 0.0
        assert by_name["boundary_wall_value"].measured_value == 0.0


class TestDecayPaths:
    def test_informational_below_thirty_modes(self, default_op):
        spec = ProblemSpec(
            op=default_op, T=1.0, nonlocal_points=((0.6, -1.0),),
            forcing=Forcing(kind="separable_builtin", space_poly=(1.0,),
                            time_poly=(1.0, 0.5)), N=16)
        rows = check_decay_rates(solve_modes(spec))
        slope_rows = [c for c in rows if c.name.startswith("decay_")]
        assert all(c.passed for c in slope_rows)
        assert all("without assertion" in c.note for c in slope_rows)
        # slopes are still measured and finite
        assert all(np.isfinite(c.measured_value) for c in slope_rows)


class TestModeOdeValidation:
    def test_rejects_k_beyond_truncation(self, default_op):
        spec = ProblemSpec(
            op=default_op, T=1.0, nonlocal_points=((0.6, -1.0),),
            forcing=Forcing(kind="separable_builtin", space_poly=(0.0,),
                            time_poly=(1.0,)), N=2)
        sol = solve_modes(spec)
        with pytest.raises(ValueError, match="exceeds N"):
            check_mode_odes(sol, 3)

    def test_no_modes_give_no_rows(self, default_op):
        """verify_solution(k_max=0) checks no mode equation."""
        spec = ProblemSpec(
            op=default_op, T=1.0, nonlocal_points=((0.6, -1.0),),
            forcing=Forcing(kind="separable_builtin"), N=2)
        assert check_mode_odes(solve_modes(spec), 0) == []


class TestModeOdeSampling:
    @pytest.fixture(scope="class")
    def sol4(self, default_op):
        return solve_modes(ProblemSpec(
            op=default_op, T=1.0, nonlocal_points=((0.6, -1.0),),
            forcing=Forcing(kind="separable_builtin", space_poly=(1.0,),
                            time_poly=(1.0, 0.5)), N=4))

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = verify.mode_matrix

        def counted(*args, **kwargs):
            calls.append(kwargs.get("modes"))
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "mode_matrix", counted)
        return calls

    def test_at_most_four_mode_matrix_calls_per_mode(self, sol4,
                                                     monkeypatch):
        """Each oracle stage samples every verified mode in one call:
        the forward values, the forward oracle, the backward values and
        the spline candidate, four calls whatever k_max is."""
        calls = self._counted(monkeypatch)
        for k_max in (1, 2, 4):
            calls.clear()
            rows = check_mode_odes(sol4, k_max)
            assert len(rows) == 2 * k_max
            assert all(r.passed for r in rows)
            assert 0 < len(calls) <= 4, k_max

    def test_gluing_samples_in_two_calls(self, sol4, monkeypatch):
        """One call for the interface profiles and one for the difference
        windows of every mode of row (d)."""
        calls = self._counted(monkeypatch)
        rows = check_gluing(sol4, _scale=1.0)
        assert all(r.passed for r in rows)
        assert 0 < len(calls) <= 2

    def test_batch_rows_keep_one_mode_bits(self, sol4):
        """A mode's rows do not depend on the other modes checked with
        it: the first two of four equal a check of that mode alone."""
        one = [r.as_dict() for r in check_mode_odes(sol4, 1)]
        assert one == [r.as_dict() for r in check_mode_odes(sol4, 4)[:2]]


class TestDeltaAsymptote:
    def test_cancelling_weights_edge(self, default_op):
        """Weights that cancel the per-point factors (-xi)^{1-delta2}
        push the limit to exactly zero; the gap still shrinks at the
        inverse-square rate."""
        w = -0.5 * 0.5 ** (default_op.delta2 - 1.0)
        spec = ProblemSpec(
            op=default_op, T=1.0,
            nonlocal_points=((0.5, -1.0), (w, -0.5)),
            forcing=Forcing(kind="separable_builtin"), N=4)
        assert delta_limit(spec) == 0.0
        rows = check_delta_asymptote(spec, (10, 25, 50))
        assert all(c.passed for c in rows)
        rate = next(c for c in rows if c.name == "delta_gap_rate")
        assert_allclose(rate.measured_value, -2.0, atol=0.1)

    def test_no_limit_at_delta2_two(self):
        op = OperatorParams(alpha1=0.7, theta=0.2, alpha2=2.0, beta2=2.0,
                            mu=0.5)
        spec = ProblemSpec(op=op, T=1.0, nonlocal_points=((0.6, -1.0),),
                           forcing=Forcing(kind="separable_builtin"), N=4)
        with pytest.raises(NumericError, match="delta2 = 2"):
            check_delta_asymptote(spec, (10, 25, 50))

    def test_k_list_must_increase(self, default_spec):
        with pytest.raises(ValueError):
            check_delta_asymptote(default_spec, (10, 10))
        with pytest.raises(ValueError):
            check_delta_asymptote(default_spec, (25, 10))


class TestSplineCandidate:
    def test_reproduces_weighted_kernel(self, default_op):
        op = default_op
        g2, d2 = op.gamma2, op.delta2
        lam = bessel_zero(2).lam
        kern = MLParams(alpha=d2, beta=g2 - 1.0)

        def u(t):
            q = -np.asarray(t, dtype=float)
            return q ** (g2 - 2.0) * mittag_leffler(kern, -lam ** 2 * q ** d2)

        cand = weighted_spline_candidate(u, g2, 1.0,
                                         knot0=rgamma(g2 - 1.0))
        ts = -np.geomspace(1e-5, 0.9, 25)
        assert_allclose(cand(ts), u(ts), rtol=1e-6)

    @pytest.mark.parametrize("M", [3, 4, 400])
    @pytest.mark.parametrize("phi", [
        lambda q: np.exp(-q),
        lambda q: np.cos(3.0 * q),
        lambda q: 1.0 / (1.0 + q * q),
    ])
    def test_matches_scipy_not_a_knot_spline(self, M, phi):
        """Same knots and end conditions as CubicSpline, to a few ulp of
        the largest knot value, over the whole knot span."""
        g2, span = 1.6, 0.8
        q = span * (np.arange(M + 1) / M) ** 3
        ref = CubicSpline(np.cbrt(q), phi(q))
        cand = weighted_spline_candidate(
            lambda t: phi(-t) * (-t) ** (g2 - 2.0), g2, span,
            knot0=phi(0.0), M=M)
        ts = -np.concatenate([np.linspace(1e-9, span, 2001), q[1:]])
        w = (-ts) ** (g2 - 2.0)
        err = np.abs(cand(ts) - ref(np.cbrt(-ts)) * w) / w
        assert np.max(err) <= 8 * np.finfo(float).eps * np.max(np.abs(phi(q)))

    def test_batch_columns_keep_one_column_bits(self):
        """Two candidates fitted together give, column by column, the
        bits that each one fitted alone gives, at every t."""
        g2, span = 1.6, 0.8
        cols = (lambda q: np.exp(-q), lambda q: np.cos(3.0 * q))

        def u(t, j):
            return cols[j](-t) * (-t) ** (g2 - 2.0)

        both = weighted_spline_candidate(
            lambda t: np.column_stack([u(t, 0), u(t, 1)]), g2, span,
            knot0=np.array([1.0, 1.0]))
        ts = -np.concatenate([np.linspace(1e-9, span, 2001), [1.5 * span]])
        got = both(ts)
        assert got.shape == (ts.size, 2)
        for j in range(2):
            alone = weighted_spline_candidate(lambda t: u(t, j), g2, span,
                                              knot0=1.0)
            assert np.array_equal(got[:, j], alone(ts))

    def test_needs_four_knots(self):
        with pytest.raises(ValueError):
            weighted_spline_candidate(lambda t: np.ones_like(t), 1.6, 1.0,
                                      knot0=1.0, M=2)


class TestReportDataclasses:
    def test_check_result_dict(self):
        c = CheckResult("x", 1.0, 1.5, 0.6, True, "note text")
        d = c.as_dict()
        assert d["name"] == "x" and d["passed"] is True
        assert d["note"] == "note text"

    def test_report_conjunction(self):
        good = CheckResult("a", 0.0, 0.0, 1.0, True, "")
        bad = CheckResult("b", 0.0, 2.0, 1.0, False, "")
        assert VerificationReport.from_checks([good, good]).overall
        assert not VerificationReport.from_checks([good, bad]).overall
