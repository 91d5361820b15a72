"""The benchmark harness in bench/ against the package's public surface.

bench/spans.py wraps fracbessel's public functions from outside and
bench/workloads.py reads their spans by name.  A deleted or renamed
public function breaks traced benchmark rounds with a KeyError; this
runs one tiny traced CLI round and reads every per-layer metric that
BENCHMARK.json declares, for the builtin and the tabulated forcing of
the CLI workloads, one plain solve-large-n round, whose rate needs
time traced in mittag_leffler, and one library solve, whose Delta_k and
F_k calls must be traced inside solve_modes.  Nothing under bench/ is
written.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["cli-default", "cli-tabulated"])
def test_traced_cli_round_reads_every_layer_metric(workload, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans
    import workloads

    import fracbessel.cli as cli

    config = workloads.write_cli_inputs(workload, 1, tmp_path)
    doc = json.loads(config.read_text())
    doc["problem"]["N"] = 3
    config.write_text(json.dumps(doc))

    tracer = spans.Tracer().install()
    try:
        rc = cli.run(cli.parse_config(config), out_dir=tmp_path / "out")
    finally:
        tracer.uninstall()
    # three modes are too few for the coefficient_tail row, so the run
    # may end in exit 3; it must still have verified and written
    assert rc in (0, 3)
    assert (tmp_path / "out" / "report.json").is_file()

    metrics = workloads.layer_metrics(tracer)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # trace.overhead_s is the plain-against-traced difference that
    # bench/run.py adds over a whole run, not a metric of one round
    missing = [m["name"] for m in declared
               if m["name"] != "trace.overhead_s" and m["name"] not in metrics]
    assert not missing, f"layer metrics not produced: {missing}"
    assert metrics["solver.modes_solved"] == 3
    # solve_modes computes F_k of every mode in one call
    assert metrics["solver.fk_calls"] == 1
    assert metrics["solver.eval_calls"] > 0
    assert metrics["verify.verify_s"] > 0.0


def test_plain_large_n_round_reads_mittag_leffler(tmp_path, monkeypatch):
    """One plain solve-large-n round, under the tracer that bench/worker.py
    installs for plain rounds, which wraps mittag_leffler alone.  Every
    plain round divides its Mittag-Leffler points by the time traced in
    specfun.mittag_leffler, so a solver path that bypassed that function
    would make every round raise ZeroDivisionError."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans
    import worker
    import workloads

    tracer = spans.Tracer(only=worker.LIGHT, detail=False).install()
    try:
        state = workloads.prepare("solve-large-n", 1, tmp_path)
        workloads.setup(state)
        result = workloads.run(state, tracer)
    finally:
        tracer.uninstall()
    assert tracer.counts["ml_points"] == 3136
    # one call per alpha: per side of each evaluation, two per solve step
    assert tracer.summary()["specfun.mittag_leffler"]["calls"] == 16
    rate = result["ml_points_per_s"][0]
    assert math.isfinite(rate) and rate > 0.0


def test_solve_traces_delta_and_fk_inside_solve_modes(monkeypatch):
    """solver.delta_calls and solver.fk_calls count the spans of
    compute_Delta_k and compute_Fk; a solve that bypassed either module
    attribute would read 0 there without any error."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans
    import workloads

    import fracbessel.solver as solver

    spec = workloads.library_spec(workloads.builtin_forcing(1), 8)
    tracer = spans.Tracer(only={"solver.solve_modes", "solver.compute_Delta_k",
                                "solver.compute_Fk"}, detail=False).install()
    try:
        solver.solve_modes(spec)
    finally:
        tracer.uninstall()
    label = [tracer.labels[idx] for idx, *_ in tracer.spans]
    parent = {label[i]: (label[sp[3]] if sp[3] >= 0 else None)
              for i, sp in enumerate(tracer.spans)}
    assert sorted(label) == ["solver.compute_Delta_k", "solver.compute_Fk",
                             "solver.solve_modes"]
    assert parent["solver.compute_Delta_k"] == "solver.solve_modes"
    assert parent["solver.compute_Fk"] == "solver.solve_modes"
    assert parent["solver.solve_modes"] is None
