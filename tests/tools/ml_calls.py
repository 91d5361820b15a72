"""Tabulate the Mittag-Leffler core calls of one run, grouped by size.

Run from the repository root, either on a config through ``cli.run``
(artifacts go to a temporary directory) or on a library solve at N modes
followed by u, u_x and u_xx on a 201 x 12 grid, as the benchmark's
solve-large-n workload does:

    OPENBLAS_NUM_THREADS=1 python3 tests/tools/ml_calls.py config CONFIG.json
    OPENBLAS_NUM_THREADS=1 python3 tests/tools/ml_calls.py solve 64

The first table gives, per alpha, the ``mittag_leffler`` calls, their
points, and how many calls passed each number of distinct betas (the
solver asks for every kernel of one alpha in one call, with a beta per
point).

Every call of ``specfun._ml_core`` (one per chunk of the sorted
arguments of a ``mittag_leffler`` call) is timed and put in a group by
its size: at most 64 points, 65 to 1024, or more.  Each group prints
its calls, points and seconds, and how many of its points each regime
served: the alpha = 1 and alpha = 2 closed forms, the ascending series,
the asymptotic sum, the contour, and the forced positive-axis series.

A second table gives each group's seconds per regime: the series plan,
the series sum, the asymptotic prediction (``_asymp_hopeful``, where
the package has it), the asymptotic sum on the points it accepts and on
the points it rejects, the contour, and the forced series (plan and
sum).  The two asymptotic columns come from timing the sum again on
each part of the points it was given, after the call that the run
uses; that extra time is left out of the run's wall time.

A third table gives each group's work against its need: the points the
series plan took (``_series_plan``, not forced) against those the
series accepted, and the asymptotic cells (terms times points) the
sum's tiles and one-term steps computed against the cells its points
needed, each point's terms up to and including its stopping term.  A
replay of the stop rule, one masked term-by-term pass per call, gives
each point's terms; the cells computed come from running the block's
schedule, tiles of _TILE_CELLS // points terms (at most _TILE_TERMS),
on them.  The replay is left out of the wall time too.  Work inside a
closed form's own helpers counts towards no table.  The wrappers are
installed on the modules from outside; nothing in the package changes.
"""

import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from fracbessel import cli, specfun, solver  # noqa: E402
from fracbessel.fracops import OperatorParams  # noqa: E402

GROUPS = ((64, "<= 64"), (1024, "65-1024"), (None, "> 1024"))
REGIMES = ("alpha_one", "alpha_two", "series", "asymptotic", "contour",
           "forced")
TIMED = ("plan", "series", "asym_pred", "asym_acc", "asym_rej", "contour",
         "forced")
WORK = ("planned", "accepted", "cells", "needed")


def _group(size: int) -> str:
    for top, name in GROUPS:
        if top is None or size <= top:
            return name
    raise AssertionError(size)


def asymp_terms(a: float, b, z: np.ndarray) -> np.ndarray:
    """Terms each point takes in specfun._asymp_block, its stopping term
    included (0 for |z| <= 1): the block's stop rule replayed in one
    masked pass over the points, term by term; b is one beta or one per
    point."""
    nmax = specfun._ASYMP_TERMS
    betas, col = specfun._distinct(b)
    renv, rg = (np.stack([specfun._asymp_coefs(a, v)[j] for v in betas])[col].T
                for j in (0, 1))
    res = specfun._ml_residue(a, b, z)
    zi = 1.0 / z
    p, s = np.ones_like(z), np.zeros_like(z)
    minenv = np.full(z.shape, np.inf)
    live = np.abs(z) > 1.0
    terms = np.where(live, nmax, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(nmax):
            p = p * zi
            env = np.abs(p) * renv[n]
            snew = s + p * rg[n]
            stop = live & ((env >= minenv)
                           | ((env < specfun._ULP_FLOOR * np.abs(snew))
                              & (env <= specfun._RTOL * np.maximum(
                                  np.abs(res - snew), 1e-300))))
            terms[stop] = n + 1
            live &= ~stop
            s, minenv = snew, np.minimum(minenv, env)
    return terms


def asymp_cells(z: np.ndarray, terms) -> int:
    """Cells specfun._asymp_block computes on z, its points taking
    ``terms`` terms: its tiles' (terms x points) and one cell a point in
    its one-term steps, run on the counts alone."""
    nmax = specfun._ASYMP_TERMS
    left, n, cells = terms[np.abs(z) > 1.0], 0, 0
    while left.size and n < nmax:
        m = left.size
        k = min(max(specfun._TILE_CELLS // m, 1), specfun._TILE_TERMS,
                nmax - n)
        if k >= m:
            cells += k * m
            left, n = left[left > n + k], n + k
            continue
        for i in range(n, n + k):
            cells += left.size
            left = left[left > i + 1]
            if not left.size:
                break
        n += k
    return cells


class Recorder:
    """Wraps mittag_leffler where the solver calls it, and _ml_core and
    its regime helpers on the specfun module."""

    def __init__(self):
        # per alpha: calls, points, and calls per count of distinct betas
        self.by_alpha = defaultdict(lambda: [0, 0, defaultdict(int)])
        self.calls = defaultdict(int)
        self.points = defaultdict(int)
        self.seconds = defaultdict(float)
        self.served = defaultdict(lambda: defaultdict(int))
        self.regime_s = defaultdict(lambda: defaultdict(float))
        self.work = defaultdict(lambda: defaultdict(int))
        self.probe_s = 0.0  # the asymptotic re-timing, outside the run
        self._group = None
        self._closed = 0  # depth inside a closed form's own helpers

    def install(self):
        ml = specfun.mittag_leffler

        def counted_ml(p, z):
            rec = self.by_alpha[p.alpha]
            rec[0] += 1
            rec[1] += np.broadcast(z, p.beta).size
            rec[2][np.unique(p.beta).size] += 1
            return ml(p, z)

        specfun.mittag_leffler = solver.mittag_leffler = counted_ml
        core = specfun._ml_core

        def timed_core(a, b, z):
            self._group = _group(z.size)
            t0 = time.perf_counter()
            probe = self.probe_s
            try:
                return core(a, b, z)
            finally:
                self.seconds[self._group] += (time.perf_counter() - t0
                                              - (self.probe_s - probe))
                self.calls[self._group] += 1
                self.points[self._group] += z.size
                self._group = None

        specfun._ml_core = timed_core
        self._wrap_closed("_ml_alpha_one", "alpha_one")
        self._wrap_closed("_ml_alpha_two_int", "alpha_two")
        self._wrap_accepting("_series_block", "series")
        self._wrap_asymptotic()
        self._wrap_timed("_series_plan", "plan")
        self._wrap_planned()
        if hasattr(specfun, "_asymp_hopeful"):
            self._wrap_timed("_asymp_hopeful", "asym_pred")
        contour = specfun._contour_block

        def counted_contour(a, b, z):
            self._count("contour", z.size)
            t0 = time.perf_counter()
            try:
                return contour(a, b, z)
            finally:
                self._time("contour", time.perf_counter() - t0)

        specfun._contour_block = counted_contour

    def _counting(self) -> bool:
        return self._group is not None and not self._closed

    def _count(self, regime, n):
        if self._counting():
            self.served[self._group][regime] += int(n)

    def _time(self, regime, secs):
        if self._counting():
            self.regime_s[self._group][regime] += secs

    def _wrap_timed(self, name, regime):
        fn = getattr(specfun, name)

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._time("forced" if kwargs.get("force", False) else regime,
                           time.perf_counter() - t0)

        setattr(specfun, name, wrapped)

    def _wrap_asymptotic(self):
        fn = specfun._asymp_block

        def wrapped(a, b, z, *args):
            val, ok = fn(a, b, z, *args)
            self._count("asymptotic", np.count_nonzero(ok))
            if self._counting():
                t0 = time.perf_counter()
                for part, regime in ((ok, "asym_acc"), (~ok, "asym_rej")):
                    if not part.any():
                        continue
                    t1 = time.perf_counter()
                    fn(a, specfun._at(b, part), z[part], *args)
                    self._time(regime, time.perf_counter() - t1)
                terms = asymp_terms(a, b, z)
                work = self.work[self._group]
                work["needed"] += int(terms.sum())
                work["cells"] += asymp_cells(z, terms)
                self.probe_s += time.perf_counter() - t0
            return val, ok

        specfun._asymp_block = wrapped

    def _wrap_planned(self):
        fn = specfun._series_plan

        def wrapped(a, b, z, force=False):
            if self._counting() and not force:
                self.work[self._group]["planned"] += z.size
            return fn(a, b, z, force)

        specfun._series_plan = wrapped

    def _wrap_closed(self, name, regime):
        fn = getattr(specfun, name)

        def wrapped(b, z):
            self._count(regime, z.size)
            self._closed += 1
            try:
                return fn(b, z)
            finally:
                self._closed -= 1

        setattr(specfun, name, wrapped)

    def _wrap_accepting(self, name, regime):
        fn = getattr(specfun, name)

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            val, ok = fn(*args, **kwargs)
            forced = kwargs.get("force", False)
            self._time("forced" if forced else regime,
                       time.perf_counter() - t0)
            self._count("forced" if forced else regime,
                        val.size if forced else np.count_nonzero(ok))
            return val, ok

        setattr(specfun, name, wrapped)

    def report(self, out=sys.stdout):
        print(f"{'alpha':>8} {'calls':>6} {'pts':>7}  betas per call: calls",
              file=out)
        for alpha, (calls, points, betas) in sorted(self.by_alpha.items()):
            print(f"{alpha:>8g} {calls:>6} {points:>7}  " + " ".join(
                f"{n}: {betas[n]}" for n in sorted(betas)), file=out)
        head = f"{'points':>8} {'calls':>6} {'pts':>7} {'s':>7}  " + " ".join(
            f"{r:>10}" for r in REGIMES)
        print(head, file=out)
        for _top, g in GROUPS:
            served = self.served[g]
            print(f"{g:>8} {self.calls[g]:>6} {self.points[g]:>7} "
                  f"{self.seconds[g]:>7.3f}  "
                  + " ".join(f"{served[r]:>10}" for r in REGIMES), file=out)
        print(f"{'points':>8} " + " ".join(f"{r:>9}" for r in TIMED), file=out)
        for _top, g in GROUPS:
            secs = self.regime_s[g]
            print(f"{g:>8} " + " ".join(f"{secs[r]:>9.4f}" for r in TIMED),
                  file=out)
        print(f"{'points':>8} " + " ".join(f"{r:>9}" for r in WORK)
              + f" {'cells/need':>10}", file=out)
        for _top, g in GROUPS:
            work = self.work[g]
            work["accepted"] = self.served[g]["series"]
            ratio = work["cells"] / work["needed"] if work["needed"] else 0.0
            print(f"{g:>8} " + " ".join(f"{work[r]:>9}" for r in WORK)
                  + f" {ratio:>10.2f}", file=out)


def run_config(path: str):
    cfg = cli.parse_config(path)
    with tempfile.TemporaryDirectory() as tmp:
        return cli.run(cfg, out_dir=tmp)


def run_solve(n: int):
    spec = solver.ProblemSpec(
        op=OperatorParams(alpha1=0.7, theta=0.2, alpha2=1.5, beta2=1.2,
                          mu=0.5),
        T=1.0, nonlocal_points=((0.6, -1.0),),
        forcing=solver.Forcing(space_poly=(1.0,), time_poly=(1.0, 0.45)),
        N=n)
    sol = solver.solve_modes(spec)
    xs = np.linspace(0.0, 1.0, 201)
    for t in np.concatenate([np.linspace(-1.0, -0.1, 6),
                             np.linspace(0.1, 1.0, 6)]):
        solver.eval_u(sol, xs, float(t))
        solver.eval_u_derivatives(sol, xs, float(t))
    return 0


def main(argv) -> int:
    if len(argv) != 3 or argv[1] not in ("config", "solve"):
        print(__doc__, file=sys.stderr)
        return 2
    rec = Recorder()
    rec.install()
    t0 = time.perf_counter()
    rc = run_config(argv[2]) if argv[1] == "config" else run_solve(int(argv[2]))
    wall = time.perf_counter() - t0 - rec.probe_s
    rec.report()
    print(f"run {wall:.3f} s, exit {rc}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
