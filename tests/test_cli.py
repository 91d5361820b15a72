"""Config-driven front end: parsing, artifacts, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from fracbessel.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK,
                            EXIT_SOLVABILITY, ConfigError, main, parse_config)
from fracbessel.fracops import OperatorParams
from fracbessel.solver import (Forcing, ModeRecord, ProblemSpec,
                               compute_Delta_k, compute_Fk, eval_u,
                               mode_matrix, solve_modes)
from fracbessel.spectrum import bessel_zero

OPERATOR = {"alpha1": 0.7, "theta": 0.2, "alpha2": 1.5, "beta2": 1.2,
            "mu": 0.5}


def write_config(path, **kwargs):
    problem = {
        "operator": OPERATOR,
        "T": 1.0,
        "nonlocal_points": [[0.6, -1.0]],
        "forcing": {"kind": "separable_builtin", "space_poly": [1.0],
                    "time_poly": [1.0, 0.5]},
        "N": 12,
    }
    problem.update(kwargs.pop("problem", {}))
    doc = {"problem": problem,
           "grid": kwargs.pop("grid", {"nx": 5, "nt_pos": 3, "nt_neg": 3}),
           "flags": kwargs.pop("flags", {"verify_modes": 2})}
    doc.update(kwargs)
    path.write_text(json.dumps(doc, indent=1))
    return path


def zero_config(path, N=6):
    return write_config(
        path,
        problem={"forcing": {"kind": "separable_builtin",
                             "space_poly": [0.0], "time_poly": [1.0]},
                 "N": N},
        flags={"verify_modes": 1})


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"problem": {
            "operator": OPERATOR, "nonlocal_points": [[0.6, -1.0]]}}))
        cfg = parse_config(p)
        spec = cfg.spec
        assert spec.N == 50 and spec.T == 1.0
        assert (cfg.nx, cfg.nt_pos, cfg.nt_neg) == (21, 9, 9)
        assert cfg.verify_modes == 10
        assert cfg.hypothesis_note == "satisfied"
        assert cfg.solution_path == "solution.csv"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(tmp_path / "absent.json")

    def test_json_error_carries_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"problem": \n  {"operator": }}')
        with pytest.raises(ConfigError, match=r"line 2, column"):
            parse_config(p)

    def test_missing_operator_key(self, tmp_path):
        p = tmp_path / "c.json"
        op = {k: v for k, v in OPERATOR.items() if k != "mu"}
        p.write_text(json.dumps({"problem": {
            "operator": op, "nonlocal_points": [[0.6, -1.0]]}}))
        with pytest.raises(ConfigError, match="missing required problem key"):
            parse_config(p)

    def test_nonlocal_ordering_is_reported(self, tmp_path):
        p = write_config(tmp_path / "c.json",
                         problem={"nonlocal_points": [[0.3, -0.2],
                                                      [0.4, -0.6]]})
        with pytest.raises(ConfigError,
                           match=r"ordering fails at indices \[1\]"):
            parse_config(p)

    def test_tolerances_block_rejected(self, tmp_path, capsys):
        # the verification gates are fixed: a config cannot loosen them
        p = write_config(tmp_path / "c.json",
                         flags={"tolerances": {"boundary_tol": 1.0}})
        with pytest.raises(ConfigError, match="flags.tolerances"):
            parse_config(p)
        assert main(["solve", str(p), "--out-dir", str(tmp_path)]) == 1
        assert "config error: 'flags.tolerances'" in capsys.readouterr().err

    @pytest.mark.parametrize("dotted,value", [
        # older homes of the deleted run settings below, and the
        # solvability floor, which is solver.DELTA_FLOOR
        ("flags.delta_variant", "paper-literal"),
        ("flags.eigenvalues", "asymptotic"),
        ("problem.delta_floor", 10.0),
        # a misspelt key in each block
        ("ouputs", {}), ("problem.delta_varaint", "paper-literal"),
        ("problem.operator.alhpa1", 0.7),
        ("problem.forcing.time_ploy", [1.0]),
        ("tabulated.sample", [[0.0, 0.0], [0.0, 0.0]]),
        ("csv.samples", [[0.0, 0.0], [0.0, 0.0]]),
        ("grid.nxx", 5), ("flags.verfy_modes", 2),
        ("outputs.soluton", "u.csv"),
        # the deleted run settings: the Delta_k argument without the
        # (-xi) power, and the closed-form eigenvalues
        ("problem.delta_variant", "paper-literal"),
        ("problem.asymptotic_eigenvalues", True),
    ])
    def test_unknown_keys_rejected(self, tmp_path, capsys, dotted, value):
        """Every block refuses a key it does not read, led by its dotted
        key; tabulated.* and csv.* name the forcing block of the inline
        and the CSV tabulated kinds."""
        forcing = {"tabulated": {"kind": "tabulated", "x_grid": [0.0, 1.0],
                                 "t_grid": [-1.0, 1.0],
                                 "samples": [[0.0, 0.0], [0.0, 0.0]]},
                   "csv": {"kind": "tabulated", "csv": "force.csv"}}
        (tmp_path / "force.csv").write_text(
            "x,t,f\n0,-1,0\n0,1,0\n1,-1,0\n1,1,0\n")
        head, _, rest = dotted.partition(".")
        if head in forcing:
            dotted = f"problem.forcing.{rest}"
        p = write_config(tmp_path / "c.json",
                         problem={"forcing": forcing.get(head, {})})
        doc = json.loads(p.read_text())
        *parents, key = dotted.split(".")
        block = doc
        for name in parents:
            block = block.setdefault(name, {})
        block[key] = value
        p.write_text(json.dumps(doc))
        assert main(["solve", str(p), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: '{dotted}' is not a key of ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("problem,csv_row", [
        ({"operator": {**OPERATOR, "theta": -math.inf}}, None),
        ({"T": math.inf}, None),
        ({"nonlocal_points": [[math.nan, -1.0]]}, None),
        ({"nonlocal_points": [[math.inf, -1.0]]}, None),
        ({"nonlocal_points": [[-math.inf, -1.0]]}, None),
        ({"forcing": {"time_poly": [1.0, math.nan]}}, None),
        ({"forcing": {"space_poly": [math.inf]}}, None),
        ({"forcing": {"kind": "tabulated", "x_grid": [0.0, math.nan],
                      "t_grid": [-1.0, 1.0],
                      "samples": [[0.0, 0.0], [0.0, 0.0]]}}, None),
        ({"forcing": {"kind": "tabulated", "x_grid": [0.0, 1.0],
                      "t_grid": [-1.0, math.inf],
                      "samples": [[0.0, 0.0], [0.0, 0.0]]}}, None),
        ({"forcing": {"kind": "tabulated", "x_grid": [0.0, 1.0],
                      "t_grid": [-1.0, 1.0],
                      "samples": [[0.0, math.nan], [0.0, 0.0]]}}, None),
        ({}, "1,1,nan"), ({}, "inf,1,0"), ({}, "1,-inf,0"),
    ], ids=["theta=-inf", "T=inf", "p=nan", "p=inf", "p=-inf",
            "time_poly-nan", "space_poly-inf", "x_grid-nan", "t_grid-inf",
            "sample-nan", "csv-f-nan",
            "csv-x-inf", "csv-t-inf"])
    def test_invalid_values_exit_config(self, tmp_path, capsys, problem,
                                        csv_row):
        """Non-finite numbers and non-finite CSV cells are config errors,
        each refused by the type that owns it (the CSV reader for the CSV
        cells)."""
        if csv_row is not None:
            rows = ["x,t,f", "0,-1,0", "0,1,0", "1,-1,0", csv_row]
            (tmp_path / "force.csv").write_text("\n".join(rows) + "\n")
            problem = {"forcing": {"kind": "tabulated", "csv": "force.csv"}}
        p = write_config(tmp_path / "c.json", problem=problem)
        assert main(["solve", str(p), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        if csv_row is not None:
            assert "data row 4 holds a non-finite value" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value", [
        ("solution", None), ("modes", 5), ("report", ["report.json"])])
    def test_output_names_must_be_strings(self, tmp_path, capsys, key,
                                          value):
        """An output value that is not a string is a config error led by
        its dotted key, and the run writes nothing (a null used to write
        the grid to a file named None)."""
        p = write_config(tmp_path / "c.json", outputs={key: value})
        out = tmp_path / "out"
        assert main(["solve", str(p), "--out-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: 'outputs.{key}' must be a "
                              f"file name, got {value!r}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_strict_flag_must_be_boolean(self, tmp_path):
        p = write_config(tmp_path / "c.json",
                         flags={"strict_hypotheses": "false"})
        with pytest.raises(ConfigError, match="strict_hypotheses"):
            parse_config(p)

    def test_readme_minimal_config_parses(self, tmp_path):
        """The README's "Minimal config" is a config the parser takes."""
        readme = (Path(__file__).resolve().parents[1] / "README.md")
        text = readme.read_text().split("Minimal config:", 1)[1]
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        p = tmp_path / "c.json"
        p.write_text(block)
        cfg = parse_config(p)
        assert (cfg.spec.N, cfg.spec.T, cfg.verify_modes) == (50, 1.0, 10)

    @pytest.mark.parametrize("block,key,value", [
        ("problem", "N", "ten"), ("problem", "N", None),
        ("problem", "N", 7.9), ("problem", "N", True),
        ("grid", "nx", "ten"), ("grid", "nt_pos", 2.5),
        ("grid", "nt_neg", [3]),
        ("flags", "verify_modes", None), ("flags", "verify_modes", "2"),
    ])
    def test_integer_fields_need_whole_numbers(self, tmp_path, capsys,
                                               block, key, value):
        defaults = {"problem": {}, "grid": {"nx": 5, "nt_pos": 3, "nt_neg": 3},
                    "flags": {"verify_modes": 2}}
        p = write_config(tmp_path / "c.json",
                         **{block: {**defaults[block], key: value}})
        assert main(["solve", str(p), "--out-dir", str(tmp_path)]) == 1
        name = key if block == "problem" else f"{block}.{key}"
        err = capsys.readouterr().err
        assert f"config error: {name} must be a whole number" in err
        assert "Traceback" not in err

    def test_whole_floats_parse(self, tmp_path):
        p = write_config(tmp_path / "c.json", problem={"N": 12.0},
                         grid={"nx": 5.0, "nt_pos": 3, "nt_neg": 3.0},
                         flags={"verify_modes": 2.0})
        cfg = parse_config(p)
        assert (cfg.spec.N, cfg.nx, cfg.nt_neg, cfg.verify_modes) == \
            (12, 5, 3, 2)
        assert all(type(v) is int for v in
                   (cfg.spec.N, cfg.nx, cfg.nt_neg, cfg.verify_modes))

    def test_verify_modes_range(self, tmp_path):
        p = write_config(tmp_path / "c.json",
                         flags={"verify_modes": 40})
        with pytest.raises(ConfigError, match="verify_modes"):
            parse_config(p)

    def test_tabulated_note_and_strict_mode(self, tmp_path):
        p = write_config(
            tmp_path / "c.json",
            problem={"forcing": {
                "kind": "tabulated", "x_grid": [0.0, 1.0],
                "t_grid": [-1.0, 1.0],
                "samples": [[0.0, 0.0], [0.0, 0.0]]}})
        assert parse_config(p).hypothesis_note == "unverifiable, proceeding"
        with pytest.raises(ConfigError, match="strict"):
            parse_config(p, strict_hypotheses=True)


class TestMainRuns:
    def test_full_run_writes_consistent_artifacts(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["solve", str(cfg_path), "--out-dir", str(out)]) == EXIT_OK
        assert "checks passed" in capsys.readouterr().out

        # the grid must reproduce the evaluator bit for bit
        sol = solve_modes(parse_config(cfg_path).spec)
        lines = (out / "solution.csv").read_text().splitlines()
        assert lines[0] == "x,t,u,u_x,u_xx"
        assert len(lines) == 1 + 5 * (3 + 1 + 3)
        for row in (lines[1], lines[9], lines[-1]):
            x_s, t_s, u_s, _, _ = row.split(",")
            want = eval_u(sol, float(x_s), float(t_s))
            # the writer evaluates whole x-rows at once; summation order
            # differs from the scalar path by an ulp or two
            assert float(u_s) == pytest.approx(want, rel=1e-13)

        # mode table round-trips the solved coefficients exactly
        mode_lines = (out / "modes.csv").read_text().splitlines()
        assert mode_lines[0] == "k,lambda,Delta,F,tau,psi"
        assert len(mode_lines) == 1 + 12
        k, lam, delta, F, tau, psi = mode_lines[3].split(",")
        m = sol.modes[2]
        assert int(k) == 3 and float(lam) == m.ev.lam
        assert float(delta) == m.Delta_k and float(F) == m.F_k
        assert float(tau) == m.tau_k and float(psi) == m.psi_k

        report = json.loads((out / "report.json").read_text())
        assert report["overall"] is True
        assert report["hypothesis_check"] == "satisfied"
        assert report["problem"] == {"N": 12, "T": 1.0}

    def test_axis_rows_leave_derivatives_empty(self, tmp_path, capsys):
        cfg_path = zero_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["solve", str(cfg_path), "--out-dir", str(out)]) == EXIT_OK
        capsys.readouterr()
        for row in (out / "solution.csv").read_text().splitlines()[1:]:
            cells = row.split(",")
            if cells[0] == "0":
                assert cells[3] == "" and cells[4] == ""
            else:
                assert cells[3] != "" and cells[4] != ""

    def test_zero_forcing_grid_is_exactly_zero(self, tmp_path, capsys):
        cfg_path = zero_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["solve", str(cfg_path), "--out-dir", str(out)]) == EXIT_OK
        capsys.readouterr()
        for row in (out / "solution.csv").read_text().splitlines()[1:]:
            assert row.split(",")[2] == "0"

    def test_byte_determinism(self, tmp_path, capsys):
        cfg_path = zero_config(tmp_path / "c.json")
        outs = (tmp_path / "a", tmp_path / "b")
        for out in outs:
            assert main(["solve", str(cfg_path),
                         "--out-dir", str(out)]) == EXIT_OK
        capsys.readouterr()
        for name in ("solution.csv", "modes.csv", "report.json"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_flag_overrides_reach_report(self, tmp_path, capsys):
        cfg_path = zero_config(tmp_path / "c.json")
        out = tmp_path / "out"
        rc = main(["solve", str(cfg_path), "--out-dir", str(out),
                   "--modes", "3"])
        assert rc == EXIT_OK
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["problem"]["N"] == 3
        rows = (out / "modes.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [
            bessel_zero(k).lam for k in (1, 2, 3)]

    def test_tabulated_forcing_notes_unverifiable(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path / "c.json",
            problem={"forcing": {
                "kind": "tabulated", "x_grid": [0.0, 1.0],
                "t_grid": [-1.0, 1.0],
                "samples": [[0.0, 0.0], [0.0, 0.0]]},
                "N": 6},
            flags={"verify_modes": 1})
        out = tmp_path / "out"
        assert main(["solve", str(cfg_path), "--out-dir", str(out)]) == EXIT_OK
        assert "unverifiable, proceeding" in capsys.readouterr().err

    def test_strict_hypotheses_flag_rejects_tabulated(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path / "c.json",
            problem={"forcing": {
                "kind": "tabulated", "x_grid": [0.0, 1.0],
                "t_grid": [-1.0, 1.0],
                "samples": [[0.0, 0.0], [0.0, 0.0]]}})
        rc = main(["solve", str(cfg_path), "--strict-hypotheses"])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_forcing_csv_reference(self, tmp_path, capsys):
        csv = tmp_path / "force.csv"
        rows = ["x,t,f"]
        for x in (0.0, 0.5, 1.0):
            for t in (-1.0, 0.0, 1.0):
                rows.append(f"{x},{t},0.0")
        csv.write_text("\n".join(rows) + "\n")
        cfg_path = write_config(
            tmp_path / "c.json",
            problem={"forcing": {"kind": "tabulated", "csv": "force.csv"},
                     "N": 6},
            flags={"verify_modes": 1})
        out = tmp_path / "out"
        assert main(["solve", str(cfg_path), "--out-dir", str(out)]) == EXIT_OK
        capsys.readouterr()

    def test_malformed_forcing_csv(self, tmp_path, capsys):
        csv = tmp_path / "force.csv"
        csv.write_text("x,t\n0.0,1.0\n")
        cfg_path = write_config(
            tmp_path / "c.json",
            problem={"forcing": {"kind": "tabulated", "csv": "force.csv"}})
        assert main(["solve", str(cfg_path)]) == EXIT_CONFIG
        assert "three columns" in capsys.readouterr().err

    def test_config_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--bogus"], ["--modes", "ten"], ["--eigen", "asymptotic"],
        ["--delta-variant", "paper-literal"]],
        ids=["unknown", "modes-ten", "eigen", "delta-variant"])
    def test_usage_error_exits_config(self, tmp_path, capsys, extra):
        """A command line that does not parse exits 1, never 2, which
        is the solvability code; the two flags of the deleted run
        settings are unknown options now, and nothing is written."""
        cfg_path = zero_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["solve", str(cfg_path), "--out-dir", str(out)]
                    + extra) == EXIT_CONFIG
        assert "usage: fracbessel" in capsys.readouterr().err
        assert not out.exists()

    def test_bare_command_exits_config(self, capsys):
        assert main([]) == EXIT_CONFIG
        assert "usage: fracbessel" in capsys.readouterr().err

    def test_readme_settings_table_lists_every_flag(self, capsys):
        """The flags of README's settings table, plus --out-dir, are the
        options that `fracbessel solve -h` prints."""
        readme = (Path(__file__).resolve().parents[1] / "README.md")
        text = readme.read_text().split("| key | default | flag |", 1)[1]
        rows = text.split("\n\n", 1)[0].splitlines()[2:]
        documented = {"--out-dir"}
        for row in rows:
            flag_cell = row.replace("\\|", "").rstrip(" |").rsplit("|", 1)[1]
            documented.update(re.findall(r"--[a-z][a-z-]*", flag_cell))
        assert main(["solve", "-h"]) == EXIT_OK
        printed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert documented == printed - {"--help"}


class TestModeBatching:
    def test_batched_modes_equal_one_mode_calls(self, tmp_path):
        """Delta_k, F_k and tau_k of a CLI solve, which computes every
        mode in one call per kernel, are the bits of one-mode calls (at
        xi = -0.5 mode 1's determinant argument is -2.27, next to where
        the contour takes over).  For tabulated forcing at theta != 0,
        whose forward side runs the hinge quadrature, mode_matrix over
        all modes equals its one-mode rows on both sides of t = 0."""
        cfg_path = write_config(
            tmp_path / "c.json",
            problem={"nonlocal_points": [[0.6, -0.5]], "N": 12},
            flags={"verify_modes": 1})
        out = tmp_path / "out"
        assert main(["solve", str(cfg_path), "--out-dir", str(out)]) == EXIT_OK
        spec = parse_config(cfg_path).spec
        rows = (out / "modes.csv").read_text().splitlines()[1:]
        assert len(rows) == 12
        for row, m in zip(rows, solve_modes(spec).modes):
            _, _, delta, F, tau, _ = (float(v) for v in row.split(","))
            one = ModeRecord(ev=m.ev, f_k=m.f_k)
            d1 = compute_Delta_k(one, spec)
            F1 = compute_Fk(one, spec)
            assert (delta, F, tau) == (d1, F1, F1 / d1)

        xs = np.linspace(0.0, 1.0, 9)
        tg = np.linspace(-1.0, 1.0, 9)
        samples = [[x ** 4 * (1 - x) ** 3 * (1 + 0.5 * math.sin(2 * t))
                    for t in tg] for x in xs]
        tab = Forcing(kind="tabulated", x_grid=tuple(xs), t_grid=tuple(tg),
                      samples=tuple(map(tuple, samples)))
        sol = solve_modes(ProblemSpec(
            op=OperatorParams(**OPERATOR), T=1.0,
            nonlocal_points=((0.6, -0.5),), forcing=tab, N=12))
        ts = [-1.0, -0.3, -0.05, 0.0, 0.04, 0.3, 0.7, 1.0]
        full = mode_matrix(sol, ts)
        for k in range(12):
            assert np.array_equal(full[k], mode_matrix(sol, ts, modes=[k])[0])


class TestSolvabilityExit:
    def test_engineered_determinant_zero(self, tmp_path, capsys):
        """Tune T so the forward relaxation factor crosses the weighted
        history bracket for mode 1; the run must stop with the
        solvability code and name k=1."""
        op = OperatorParams(**OPERATOR)
        forcing = Forcing(kind="separable_builtin", space_poly=(1.0,),
                          time_poly=(1.0, 0.5))
        probe = ModeRecord(ev=bessel_zero(1),
                           f_k=lambda t: np.zeros_like(np.asarray(t)))

        def delta1(T):
            spec = ProblemSpec(op=op, T=T, nonlocal_points=((0.03, -1.0),),
                               forcing=forcing, N=2)
            return compute_Delta_k(probe, spec)

        T_star = brentq(delta1, 1.2, 20.0, xtol=1e-13)
        assert abs(delta1(T_star)) < 1e-10

        cfg_path = write_config(
            tmp_path / "c.json",
            problem={"T": T_star, "nonlocal_points": [[0.03, -1.0]],
                     "N": 3},
            flags={"verify_modes": 1})
        out = tmp_path / "out"
        rc = main(["solve", str(cfg_path), "--out-dir", str(out)])
        assert rc == EXIT_SOLVABILITY
        err = capsys.readouterr().err
        assert "solvability failure" in err
        assert "k=1" in err
        # nothing was written: the failure precedes all artifacts
        assert not (out / "solution.csv").exists()
        assert not (out / "report.json").exists()


class TestNumericExit:
    def test_unexpected_failure_exits_numeric(self, tmp_path, capsys,
                                              monkeypatch):
        """A stray exception inside solve_modes must be reported as a
        numeric failure with exit 3, not escape with the config code."""
        import fracbessel.solver as solver

        def stray(*args, **kwargs):
            raise ValueError("stray failure")

        monkeypatch.setattr(solver, "compute_Fk", stray)
        cfg_path = write_config(tmp_path / "c.json", problem={"N": 4},
                                flags={"verify_modes": 1})
        rc = main(["solve", str(cfg_path), "--out-dir",
                   str(tmp_path / "out")])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: ValueError: stray failure" in err
        assert "Traceback" not in err

    def test_delta2_two_exits_numeric(self, tmp_path, capsys):
        """At alpha2 = beta2 = 2 Delta_k oscillates and has no limit for
        the asymptote check: a typed numeric failure, not a domain error
        from Gamma(0)."""
        cfg_path = write_config(
            tmp_path / "c.json",
            problem={"operator": {**OPERATOR, "alpha2": 2.0, "beta2": 2.0},
                     "N": 4},
            flags={"verify_modes": 1})
        rc = main(["solve", str(cfg_path), "--out-dir",
                   str(tmp_path / "out")])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert ("numeric failure: Delta_k has no large-k limit at "
                "delta2 = 2") in err
        assert "ValueError" not in err

    def test_zero_history_time_solves(self, tmp_path):
        """A non-local point at xi = 0 passes the config and now solves
        and verifies: the determinant limit counts that point's weight."""
        cfg_path = write_config(
            tmp_path / "c.json",
            problem={"nonlocal_points": [[0.3, -0.5], [0.4, 0.0]], "N": 8},
            flags={"verify_modes": 1})
        rc = main(["solve", str(cfg_path), "--out-dir",
                   str(tmp_path / "out")])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["overall"] is True


class TestSubprocessEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg_path = zero_config(tmp_path / "c.json")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fracbessel", "solve", str(cfg_path),
             "--out-dir", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout
        assert (out / "report.json").exists()

    def test_run_loads_no_scipy(self, tmp_path):
        """Importing the package and a verified solve load no scipy
        module at all.  Tabulated forcing at theta != 0 (p != 1) runs
        the forward hinge quadrature, the Gauss-Jacobi rules of every
        oracle and the backward spline surrogate."""
        xs = [i / 8 for i in range(9)]
        ts = [-1.0 + i / 4 for i in range(9)]
        samples = [[x ** 4 * (1 - x) ** 3 * (1 + 0.5 * t) for t in ts]
                   for x in xs]
        cfg_path = write_config(
            tmp_path / "c.json",
            problem={"forcing": {"kind": "tabulated", "x_grid": xs,
                                 "t_grid": ts, "samples": samples},
                     "N": 10},
            flags={"verify_modes": 1})
        code = (
            "import json, sys\n"
            "import fracbessel, fracbessel.cli\n"
            "rc = fracbessel.cli.main(sys.argv[1:])\n"
            "print(json.dumps({'rc': rc, 'loaded': sorted(\n"
            "    m for m in sys.modules\n"
            "    if m == 'scipy' or m.startswith('scipy.'))}))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c", code, "solve", str(cfg_path),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"rc": EXIT_OK, "loaded": []}
