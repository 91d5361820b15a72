"""Benchmark of fracbessel: one workload per run, one fresh process per round.

    python3 bench/run.py --workload cli-default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run repeats rounds for about --seconds: it starts another round only
while that round is expected to end less than half a round past
--seconds, and it makes at least two.  Each round is a fresh worker
process (bench/worker.py) that imports fracbessel, builds its inputs,
runs the workload once, checks the outputs against independent
computations and reports.  One worker runs at a time, so the load is
sequential and comes from a single process that keeps to nproc threads.

A shared machine's speed can move between a fast and a slow state every
few seconds, so every end-to-end figure is taken over samples spread
across the whole run: each is the median over the samples of all plain
rounds.

With --trace 1 the rounds alternate plain and traced; the traced ones
give the per-layer metrics, and the difference between the two kinds'
median run_s is the trace's own overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The run writes only under
bench/out/, where rounds.json keeps every round's report.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

MIN_ROUNDS = 2  # with --trace 1, one plain and one traced
LAST_START_S = 120.0  # no round starts later, so a run ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
}
# Printed besides the end-to-end metrics, where a workload measures
# them, but not gated: ml_points_per_s is run_s in other units on
# ml-regimes and follows run_s elsewhere, and solve_s and
# field_points_per_s exist on solve-large-n only.
EXTRA = {"ml_points_per_s": "points/s", "solve_s": "s",
         "field_points_per_s": "points/s"}


def layer_unit(name: str) -> str:
    if name.endswith("points_per_s"):
        return "points/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_margin")):
        return "ratio"
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(workload: str, seed: int, traced: bool, out: Path,
              timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out",
           str(out)]
    with subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                          stdout=subprocess.PIPE) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        finally:
            # also on a timeout or SIGTERM: no worker outlives the run
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    out = HERE / "out" / workload
    out.mkdir(parents=True, exist_ok=True)
    if workload.startswith("cli-"):
        wl.write_cli_inputs(workload, seed, out)
    start = time.perf_counter()
    rounds = []
    lengths = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        rounds.append((traced, run_round(workload, seed, traced, out,
                                         timeout=170.0 - (t0 - start))))
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed >= LAST_START_S:
            break
        if (len(rounds) >= MIN_ROUNDS
                and elapsed + 0.5 * statistics.median(lengths) > seconds):
            break
    (out / "rounds.json").write_text(json.dumps(
        [dict(r, traced=t) for t, r in rounds]) + "\n")

    correct = True
    for _, r in rounds:
        for c in r["checks"]:
            if not c["passed"]:
                correct = False
                print(f"check failed: {c['name']}: {c['detail']}",
                      file=sys.stderr)

    def pooled(rs, name):
        return statistics.median(
            v for r in rs for v in (r[name] if isinstance(r[name], list)
                                    else [r[name]]))

    plain = [r for t, r in rounds if not t]
    if trace:
        traced_rounds = [r for t, r in rounds if t]
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced_rounds)
            for name in traced_rounds[0]["layers"]}
        metrics["trace.overhead_s"] = (pooled(traced_rounds, "run_s")
                                       - pooled(plain, "run_s"))
        metrics = {n: {"value": v, "unit": layer_unit(n)}
                   for n, v in metrics.items()}
    else:
        metrics = {name: {"value": pooled(plain, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    extra = {name: {"value": pooled(plain, name), "unit": unit}
             for name, unit in EXTRA.items() if name in plain[0]}
    return {"correct": correct,
            "attempted": sum(r["attempted"] for _, r in rounds),
            "failed": sum(r["failed"] for _, r in rounds),
            "metrics": metrics, "extra": extra}


def report(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, m in result.pop("extra").items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']} (not gated)")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fracbessel" / "__init__.py").is_file():
        print(f"no fracbessel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        report(name, results[name])
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
