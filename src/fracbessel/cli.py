"""Configuration-driven front end.

One invocation reads a JSON problem file, solves the truncated series,
runs the verification battery, and writes three artifacts: a solution
grid CSV, a mode table CSV, and a JSON report.  The exit status encodes
the outcome so scripted callers never have to parse the report:

    0   solved and every verification check passed
    1   configuration error (unreadable, malformed, or invalid input,
        or a command line that does not parse)
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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import NumericError, SolvabilityError
from .fracops import OperatorParams
from .solver import (Forcing, ProblemSpec, mode_matrix, radial_bases,
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
    output directory at run time.
    """

    spec: ProblemSpec
    nx: int
    nt_pos: int
    nt_neg: int
    verify_modes: int
    solution_path: str = "solution.csv"
    mode_table_path: str = "modes.csv"
    report_path: str = "report.json"

    @property
    def hypothesis_note(self) -> str:
        """The smoothness and compatibility check on the forcing:
        'satisfied' for the builtin family, 'unverifiable, proceeding'
        for tabulated data."""
        if self.spec.forcing.hypothesis_status() == "satisfied":
            return "satisfied"
        return "unverifiable, proceeding"


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


def _block(raw, name: str, keys) -> dict:
    """raw as the config block at dotted key name ('' for the top level):
    a ConfigError, led by the quoted dotted key, for any key of raw that
    is not in keys, the keys the parser reads there."""
    where = f"'{name}'" if name else "the top level"
    _require(isinstance(raw, dict), f"{where} must be an object")
    for key in raw:
        _require(key in keys, f"'{name}{'.' if name else ''}{key}' is not a "
                 f"key of {where}, which takes {', '.join(keys)}")
    return raw


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
    bad = np.flatnonzero(~np.isfinite(raw).all(axis=1))
    if bad.size:
        raise ConfigError(
            f"forcing csv {path}: data row {bad[0] + 1} holds a non-finite "
            "value")
    xs, ix = np.unique(raw[:, 0], return_inverse=True)
    ts, it = np.unique(raw[:, 1], return_inverse=True)
    if raw.shape[0] != xs.size * ts.size:
        raise ConfigError(
            f"forcing csv {path} is not a complete rectangular grid: "
            f"{raw.shape[0]} rows for {xs.size} x-values and {ts.size} "
            "t-values")
    samples = np.full((xs.size, ts.size), np.nan)
    samples[ix, it] = raw[:, 2]
    if np.isnan(samples).any():
        raise ConfigError(
            f"forcing csv {path} repeats some (x, t) pairs and misses others")
    return Forcing(kind="tabulated", x_grid=tuple(xs), t_grid=tuple(ts),
                   samples=tuple(tuple(r) for r in samples))


def _build_forcing(raw, base_dir: Path) -> Forcing:
    """The 'problem.forcing' block; Forcing holds every default."""
    _require(isinstance(raw, dict), "'problem.forcing' must be an object")
    if raw.get("kind") != "tabulated":
        keys = ("kind", "space_poly", "time_poly")
    elif "csv" in raw:
        _block(raw, "problem.forcing", ("kind", "csv"))
        return _load_forcing_csv(base_dir / raw["csv"])
    else:
        keys = ("kind", "x_grid", "t_grid", "samples")
    return Forcing(**_block(raw, "problem.forcing", keys))


_OPERATOR_KEYS = tuple(f.name for f in fields(OperatorParams))
# ProblemSpec fields that the problem block and the command line may set
_SETTINGS = ("N",)
_OUTPUT_FIELDS = {"solution": "solution_path", "modes": "mode_table_path",
                  "report": "report_path"}


def parse_config(path, *, overrides: dict = None,
                 strict_hypotheses: bool = False) -> RunConfig:
    """Load and validate a JSON run configuration.

    overrides maps the ProblemSpec field N to a command-line value that
    wins over the problem block; ProblemSpec, Forcing and RunConfig hold
    the defaults.
    Raises ConfigError on any problem, a key that no block reads
    included; JSON syntax errors are reported with their line and
    column.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    _block(doc, "", ("problem", "grid", "flags", "outputs"))
    prob = _block(doc.get("problem"), "problem",
                  ("operator", "T", "nonlocal_points", "forcing") + _SETTINGS)
    op_raw = _block(prob.get("operator"), "problem.operator", _OPERATOR_KEYS)
    for key in _OPERATOR_KEYS:
        _require(key in op_raw,
                 f"missing required problem key: 'problem.operator.{key}'")

    settings = {key: prob[key] for key in _SETTINGS if key in prob}
    settings.update(overrides or {})
    if "N" in settings:
        settings["N"] = _whole(settings["N"], "N")
    try:
        forcing = _build_forcing(prob.get("forcing", {}), path.parent)
        spec = ProblemSpec(
            op=OperatorParams(**op_raw), T=prob.get("T", 1.0),
            nonlocal_points=prob.get("nonlocal_points", ()),
            forcing=forcing, **settings)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid problem block: {exc}") from exc

    grid = _block(doc.get("grid", {}), "grid", ("nx", "nt_pos", "nt_neg"))
    nx = _whole(grid.get("nx", 21), "grid.nx")
    nt_pos = _whole(grid.get("nt_pos", 9), "grid.nt_pos")
    nt_neg = _whole(grid.get("nt_neg", 9), "grid.nt_neg")
    _require(nx >= 2, f"grid.nx must be at least 2, got {nx}")
    _require(nt_pos >= 2, f"grid.nt_pos must be at least 2, got {nt_pos}")
    _require(nt_neg >= 2, f"grid.nt_neg must be at least 2, got {nt_neg}")

    flags = _block(doc.get("flags", {}), "flags",
                   ("verify_modes", "strict_hypotheses"))
    verify_modes = _whole(flags.get("verify_modes", min(10, spec.N)),
                          "flags.verify_modes")
    _require(1 <= verify_modes <= spec.N,
             f"flags.verify_modes must lie in [1, N={spec.N}], "
             f"got {verify_modes}")
    strict = flags.get("strict_hypotheses", False)
    _require(isinstance(strict, bool),
             f"flags.strict_hypotheses must be true or false, got {strict!r}")
    if (strict or strict_hypotheses) and (
            forcing.hypothesis_status() != "satisfied"):
        raise ConfigError(
            "forcing hypotheses are unverifiable for tabulated data "
            "and strict hypothesis checking is on")

    outputs = _block(doc.get("outputs", {}), "outputs", tuple(_OUTPUT_FIELDS))
    for key, v in outputs.items():
        _require(isinstance(v, str),
                 f"'outputs.{key}' must be a file name, got {v!r}")
    return RunConfig(
        spec=spec, nx=nx, nt_pos=nt_pos, nt_neg=nt_neg,
        verify_modes=verify_modes,
        **{_OUTPUT_FIELDS[key]: v for key, v in outputs.items()})


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
    u, ux, uxx = (basis @ vals for basis in radial_bases(sol, xs, (0, 1, 2)))
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
    ps.add_argument("--strict-hypotheses", action="store_true",
                    help="reject configs whose forcing hypotheses cannot "
                         "be verified")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # -h exits 0; a usage error is a configuration error, not the
        # solvability failure that argparse's own code 2 would read as
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG

    overrides = {}
    if args.modes is not None:
        overrides["N"] = args.modes
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
