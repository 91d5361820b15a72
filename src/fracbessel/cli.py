"""Configuration-driven front end.

One invocation reads a JSON problem file, solves the truncated series,
runs the verification battery, and writes three artifacts: a solution
grid CSV, a mode table CSV, and a JSON report.  The exit status encodes
the outcome so scripted callers never have to parse the report:

    0   solved and every verification check passed
    1   configuration error (unreadable, malformed, or invalid input)
    2   solvability failure: some mode determinant sits on the floor
    3   numeric failure: an internal routine missed its accuracy
        contract, or the verification report is not clean

Values are printed with 17 significant digits so parsing an emitted
grid recovers the exact binary doubles.  Re-running the same config
byte-reproduces all three files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError, SolvabilityError
from .fracops import OperatorParams
from .solver import (Forcing, ProblemSpec, mode_matrix, radial_basis,
                     solve_modes)
from .verify import verify_solution

__all__ = ["RunConfig", "parse_config", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVABILITY = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description.

    Output paths are kept relative here and resolved against the chosen
    output directory at run time.  hypothesis_note records the smoothness
    and compatibility check on the forcing made during parsing
    ('satisfied' for the builtin family, 'unverifiable, proceeding' for
    tabulated data).
    """

    spec: ProblemSpec
    nx: int
    nt_pos: int
    nt_neg: int
    solution_path: str = "solution.csv"
    mode_table_path: str = "modes.csv"
    report_path: str = "report.json"
    hypothesis_note: str = "satisfied"
    verify_modes: int = 10


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _whole(value, name: str) -> int:
    """value as an int: a ConfigError unless it is a whole number, so
    50 and 50.0 pass and "ten", null, true and 7.9 do not."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and float(value).is_integer(),
             f"{name} must be a whole number, got {value!r}")
    return int(value)


def _load_forcing_csv(path: Path) -> Forcing:
    """Read (x, t, f) sample triplets and rebuild the rectangular grid.

    The file must contain every (x, t) pair of the grid exactly once;
    anything else cannot be interpolated bilinearly and is rejected.
    """
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"forcing csv {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"forcing csv {path} is not numeric: {exc}") from exc
    if raw.shape[1] != 3:
        raise ConfigError(
            f"forcing csv {path} must have three columns x,t,f "
            f"(got {raw.shape[1]})")
    xs = np.unique(raw[:, 0])
    ts = np.unique(raw[:, 1])
    if raw.shape[0] != xs.size * ts.size:
        raise ConfigError(
            f"forcing csv {path} is not a complete rectangular grid: "
            f"{raw.shape[0]} rows for {xs.size} x-values and {ts.size} "
            "t-values")
    samples = np.full((xs.size, ts.size), np.nan)
    ix = np.searchsorted(xs, raw[:, 0])
    it = np.searchsorted(ts, raw[:, 1])
    samples[ix, it] = raw[:, 2]
    if np.isnan(samples).any():
        raise ConfigError(
            f"forcing csv {path} repeats some (x, t) pairs and misses others")
    return Forcing(kind="tabulated", x_grid=tuple(xs), t_grid=tuple(ts),
                   samples=tuple(tuple(r) for r in samples))


def _build_forcing(raw: dict, base_dir: Path) -> Forcing:
    _require(isinstance(raw, dict), "'problem.forcing' must be an object")
    kind = raw.get("kind", "separable_builtin")
    if kind == "separable_builtin":
        return Forcing(kind=kind,
                       space_poly=tuple(raw.get("space_poly", (1.0,))),
                       time_poly=tuple(raw.get("time_poly", (1.0,))))
    if kind == "tabulated":
        if "csv" in raw:
            return _load_forcing_csv(base_dir / raw["csv"])
        return Forcing(kind=kind, x_grid=tuple(raw.get("x_grid", ())),
                       t_grid=tuple(raw.get("t_grid", ())),
                       samples=tuple(tuple(r)
                                     for r in raw.get("samples", ())))
    raise ConfigError(f"unknown forcing kind {kind!r}")


_EIGEN_CHOICES = ("true", "asymptotic")
_VARIANT_CHOICES = ("consistent", "paper-literal")


def parse_config(path, *, overrides: dict = None,
                 strict_hypotheses: bool = False) -> RunConfig:
    """Load and validate a JSON run configuration.

    overrides maps a subset of {'modes', 'eigen', 'delta_variant'} to
    command-line values that win over both the flags block and the
    problem block.  Raises ConfigError on any problem; JSON syntax
    errors are reported with their line and column.  The verification
    gates are fixed, so a 'flags.tolerances' block is an error too.
    """
    overrides = overrides or {}
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    _require(isinstance(doc, dict), "top level of the config must be an object")

    prob = doc.get("problem")
    _require(isinstance(prob, dict), "config needs a 'problem' object")
    op_raw = prob.get("operator")
    _require(isinstance(op_raw, dict), "'problem.operator' must be an object")
    flags = doc.get("flags", {})
    _require(isinstance(flags, dict), "'flags' must be an object")
    _require("tolerances" not in flags,
             "'flags.tolerances' is not supported: the verification gates "
             "are fixed")

    # precedence: command line > flags block > problem block > defaults
    variant = prob.get("delta_variant", "consistent")
    variant = flags.get("delta_variant", variant)
    variant = overrides.get("delta_variant", variant)
    _require(variant in _VARIANT_CHOICES,
             f"delta variant must be one of {_VARIANT_CHOICES}, got {variant!r}")

    asym = bool(prob.get("asymptotic_eigenvalues", False))
    eigen = flags.get("eigenvalues", "asymptotic" if asym else "true")
    eigen = overrides.get("eigen", eigen)
    _require(eigen in _EIGEN_CHOICES,
             f"eigenvalue mode must be one of {_EIGEN_CHOICES}, got {eigen!r}")

    n_modes = _whole(overrides.get("modes", prob.get("N", 50)), "N")

    try:
        op = OperatorParams(
            alpha1=float(op_raw["alpha1"]), theta=float(op_raw["theta"]),
            alpha2=float(op_raw["alpha2"]), beta2=float(op_raw["beta2"]),
            mu=float(op_raw["mu"]))
        forcing = _build_forcing(prob.get("forcing", {}), path.parent)
        raw_pts = prob.get("nonlocal_points", ())
        _require(bool(raw_pts), "'problem.nonlocal_points' must be non-empty")
        pts = tuple((float(p), float(xi)) for p, xi in raw_pts)
        spec = ProblemSpec(
            op=op, T=float(prob.get("T", 1.0)), nonlocal_points=pts,
            forcing=forcing, N=n_modes, delta_variant=variant,
            asymptotic_eigenvalues=(eigen == "asymptotic"),
            delta_floor=float(prob.get("delta_floor", 1e-10)))
    except KeyError as exc:
        raise ConfigError(f"missing required problem key: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid problem block: {exc}") from exc

    grid = doc.get("grid", {})
    _require(isinstance(grid, dict), "'grid' must be an object")
    nx = _whole(grid.get("nx", 21), "grid.nx")
    nt_pos = _whole(grid.get("nt_pos", 9), "grid.nt_pos")
    nt_neg = _whole(grid.get("nt_neg", 9), "grid.nt_neg")
    _require(nx >= 2, f"grid.nx must be at least 2, got {nx}")
    _require(nt_pos >= 2, f"grid.nt_pos must be at least 2, got {nt_pos}")
    _require(nt_neg >= 2, f"grid.nt_neg must be at least 2, got {nt_neg}")

    outputs = doc.get("outputs", {})
    _require(isinstance(outputs, dict), "'outputs' must be an object")

    verify_modes = _whole(flags.get("verify_modes", min(10, spec.N)),
                          "flags.verify_modes")
    _require(1 <= verify_modes <= spec.N,
             f"flags.verify_modes must lie in [1, N={spec.N}], "
             f"got {verify_modes}")

    hyp = forcing.hypothesis_status()
    strict = strict_hypotheses or bool(flags.get("strict_hypotheses", False))
    if hyp != "satisfied":
        if strict:
            raise ConfigError(
                "forcing hypotheses are unverifiable for tabulated data "
                "and strict hypothesis checking is on")
        note = "unverifiable, proceeding"
    else:
        note = "satisfied"

    return RunConfig(
        spec=spec, nx=nx, nt_pos=nt_pos, nt_neg=nt_neg,
        solution_path=str(outputs.get("solution", "solution.csv")),
        mode_table_path=str(outputs.get("modes", "modes.csv")),
        report_path=str(outputs.get("report", "report.json")),
        hypothesis_note=note, verify_modes=verify_modes)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_solution_grid(cfg: RunConfig, sol, path: Path):
    """Tensor grid over both time domains; t = 0 appears once.

    u_x and u_xx stay empty at x = 0 where the radial operator's 1/x
    factor makes them unusable downstream anyway.
    """
    T = cfg.spec.T
    xs = np.linspace(0.0, 1.0, cfg.nx)
    ts = np.concatenate([
        np.linspace(-T, 0.0, cfg.nt_neg, endpoint=False),
        [0.0],
        np.linspace(0.0, T, cfg.nt_pos + 1)[1:],
    ])
    vals = mode_matrix(sol, ts)
    u, ux, uxx = (radial_basis(sol, xs, order) @ vals for order in (0, 1, 2))
    lines = ["x,t,u,u_x,u_xx"]
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            if x == 0.0:
                lines.append(f"{_fmt(x)},{_fmt(t)},{_fmt(u[j, i])},,")
            else:
                lines.append(f"{_fmt(x)},{_fmt(t)},{_fmt(u[j, i])},"
                             f"{_fmt(ux[j, i])},{_fmt(uxx[j, i])}")
    path.write_text("\n".join(lines) + "\n")


def _write_mode_table(sol, path: Path):
    lines = ["k,lambda,Delta,F,tau,psi"]
    for m in sol.modes:
        lines.append(",".join([
            str(m.ev.k), _fmt(m.ev.lam), _fmt(m.Delta_k), _fmt(m.F_k),
            _fmt(m.tau_k), _fmt(m.psi_k)]))
    path.write_text("\n".join(lines) + "\n")


def run(cfg: RunConfig, out_dir=".") -> int:
    """Solve, verify, write artifacts; return the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        sol = solve_modes(cfg.spec)
        report = verify_solution(sol, k_max=cfg.verify_modes)
        _write_solution_grid(cfg, sol, out / cfg.solution_path)
        _write_mode_table(sol, out / cfg.mode_table_path)
    except SolvabilityError as exc:
        print(f"solvability failure: {exc}", file=sys.stderr)
        return EXIT_SOLVABILITY
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:
        # The config was accepted, so any other failure is numeric:
        # exit 1 stays reserved for config errors.
        print(f"numeric failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC

    doc = {
        "hypothesis_check": cfg.hypothesis_note,
        "problem": {
            "N": cfg.spec.N,
            "T": cfg.spec.T,
            "delta_variant": cfg.spec.delta_variant,
            "eigenvalues": ("asymptotic" if cfg.spec.asymptotic_eigenvalues
                            else "true"),
        },
    }
    doc.update(report.as_dict())
    (out / cfg.report_path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")

    n_pass = sum(c.passed for c in report.checks)
    print(f"verification: {n_pass}/{len(report.checks)} checks passed; "
          f"report at {out / cfg.report_path}")
    if not report.overall:
        for c in report.checks:
            if not c.passed:
                print(f"  failed: {c.name} measured={c.measured_value:.6e} "
                      f"tolerance={c.tolerance:.6e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracbessel",
        description="Series solver for a mixed-type fractional diffusion "
                    "problem with a Bessel spatial operator")
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("solve", help="solve a problem file and verify")
    ps.add_argument("config", help="path to the JSON problem file")
    ps.add_argument("--out-dir", default=".",
                    help="directory for the output artifacts")
    ps.add_argument("--modes", type=int, default=None,
                    help="override the series truncation N")
    ps.add_argument("--eigen", choices=_EIGEN_CHOICES, default=None,
                    help="use Newton-refined Bessel zeros or the "
                         "closed-form asymptotic approximation")
    ps.add_argument("--delta-variant", choices=_VARIANT_CHOICES, default=None,
                    help="Mittag-Leffler argument convention inside the "
                         "mode determinant")
    ps.add_argument("--strict-hypotheses", action="store_true",
                    help="reject configs whose forcing hypotheses cannot "
                         "be verified")
    args = parser.parse_args(argv)

    overrides = {}
    if args.modes is not None:
        overrides["modes"] = args.modes
    if args.eigen is not None:
        overrides["eigen"] = args.eigen
    if args.delta_variant is not None:
        overrides["delta_variant"] = args.delta_variant
    try:
        cfg = parse_config(args.config, overrides=overrides,
                           strict_hypotheses=args.strict_hypotheses)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.hypothesis_note != "satisfied":
        print(f"forcing hypothesis check: {cfg.hypothesis_note}",
              file=sys.stderr)
    return run(cfg, out_dir=args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
