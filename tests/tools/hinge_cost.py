"""Tabulate the forward hinge quadrature's calls in one run of a config.

Run from the repository root on a config with tabulated forcing at
theta != 0 (the only runs that reach the hinge quadrature); artifacts go
to a temporary directory:

    OPENBLAS_NUM_THREADS=1 python3 tests/tools/hinge_cost.py CONFIG.json

Each call of ``solver._hinge_quadrature`` prints one line: its modes,
its W, its quadrature nodes, the kernel values it took from
``mittag_leffler`` and from the Mittag-Leffler table (where the package
has one; its values taken while building or growing the table count
under mittag_leffler, one per point of a call whose beta may be given
per point), and its seconds.  The last line gives the
totals.  The wrappers are installed on the solver module from outside;
nothing in the package changes.
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from fracbessel import cli, solver  # noqa: E402

COLUMNS = ("modes", "W", "nodes", "ml_values", "table_values", "seconds")


class Recorder:
    """Wraps the hinge quadrature and the kernel sources it reads."""

    def __init__(self):
        self.rows = []
        self.row = None
        self.building = False
        hinge = solver._hinge_quadrature
        ml = solver.mittag_leffler

        def hinge_wrapper(*args):
            c, W = args[-5], args[-4]
            self.row = dict(modes=np.size(c), W=np.size(W), nodes=0,
                            ml_values=0, table_values=0)
            t0 = time.perf_counter()
            try:
                return hinge(*args)
            finally:
                self.row["seconds"] = time.perf_counter() - t0
                self.rows.append(self.row)
                self.row = None

        def ml_wrapper(p, z):
            if self.row is not None:
                size = np.broadcast(z, p.beta).size
                self.row["ml_values"] += size
                if not self.building:
                    self.row["nodes"] += size
            return ml(p, z)

        solver._hinge_quadrature = hinge_wrapper
        solver.mittag_leffler = ml_wrapper
        table = getattr(solver, "_KernelTable", None)
        if table is not None:
            self._wrap_table(table)

    def _wrap_table(self, table):
        call, grow = table.__call__, table._grow

        def call_wrapper(tab, v):
            if self.row is not None:
                self.row["table_values"] += np.size(v)
                self.row["nodes"] += np.size(v)
            return call(tab, v)

        def grow_wrapper(tab, pieces):
            self.building = True
            try:
                return grow(tab, pieces)
            finally:
                self.building = False

        table.__call__ = call_wrapper
        table._grow = grow_wrapper


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    cfg = cli.parse_config(argv[1])
    rec = Recorder()
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        rc = cli.run(cfg, out_dir=out)
        run_s = time.perf_counter() - t0
    print(" ".join(f"{c:>12}" for c in COLUMNS))
    for row in rec.rows:
        print(" ".join(f"{row[c]:>12}" if c != "seconds"
                       else f"{row[c]:>12.4f}" for c in COLUMNS))
    totals = {c: sum(r[c] for r in rec.rows) for c in COLUMNS}
    print(f"{len(rec.rows)} calls: " + ", ".join(
        f"{c} {totals[c]}" if c != "seconds" else f"{c} {totals[c]:.4f}"
        for c in COLUMNS[2:]) + f"; cli.run {run_s:.3f} s, exit {rc}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
