"""Shared fixtures: the default problem instance, solved once.

The solve is a few seconds at N = 50, so every module that needs a
solved series shares this session-scoped instance.  Tests that mutate
nothing may lean on it freely; anything parameter-dependent builds its
own spec.
"""

import pytest

from fracbessel.fracops import OperatorParams
from fracbessel.solver import (Forcing, ModeRecord, ProblemSpec,
                               SeriesSolution, solve_modes)
from fracbessel.spectrum import Eigenvalue
from fracbessel.verify import verify_solution

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    """One visible pass/fail line per acceptance criterion, kept out of
    the capture machinery so it shows up in every run."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def criterion():
    """Recorder used by the acceptance module: criterion(n, ok, detail)
    logs the verdict line and hands ok back for the assert."""

    def record(num, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        ACCEPTANCE_LINES.append(f"criterion {num:02d} {verdict}  {detail}")
        return ok

    return record


@pytest.fixture(scope="session")
def default_op():
    return OperatorParams(alpha1=0.7, theta=0.2, alpha2=1.5, beta2=1.2,
                          mu=0.5)


@pytest.fixture(scope="session")
def default_spec(default_op):
    # time factor 1 + t/(2T) with T = 1
    return ProblemSpec(
        op=default_op,
        T=1.0,
        nonlocal_points=((0.6, -1.0),),
        forcing=Forcing(kind="separable_builtin", space_poly=(1.0,),
                        time_poly=(1.0, 0.5)),
        N=50,
    )


@pytest.fixture(scope="session")
def backward_cauchy():
    """Factory of one-mode solutions under ``op`` whose backward half
    solves D u = -4 u + g(t) on t < 0 with weighted traces xi0 and xi1:
    lam = 2, phi = tau = xi0, psi = xi1, f_k = g, so that
    mode_matrix(sol, t)[0] is u(t)."""

    def build(op, xi0, xi1, g):
        mode = ModeRecord(ev=Eigenvalue(k=1, lam=2.0, norm_sq=0.5), f_k=g,
                          tau_k=xi0, phi_k=xi0, psi_k=xi1)
        spec = ProblemSpec(op=op, T=1.0, nonlocal_points=((1.0, -1.0),),
                           forcing=Forcing(), N=1)
        return SeriesSolution(spec=spec, modes=(mode,), tail_estimate=0.0)

    return build


@pytest.fixture(scope="session")
def default_solution(default_spec):
    return solve_modes(default_spec)


@pytest.fixture(scope="session")
def default_report(default_solution):
    """Full verification of the default instance at stock tolerances.

    This is the longest single computation in the suite (about half a
    minute); the verification tests and the acceptance module both read
    from it, so it runs exactly once."""
    return verify_solution(default_solution)
