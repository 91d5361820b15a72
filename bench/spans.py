"""Span tracer that wraps fracbessel's public functions from outside.

Modules import each other's functions by name (``from .specfun import
mittag_leffler``), so replacing ``specfun.mittag_leffler`` alone would
miss every call made from ``solver`` or ``verify``.  ``Tracer.install``
therefore rebinds each public function under every module name it is
bound to, across the whole package, without editing ``src/``.

Each call records a span (name, start, end, parent) in memory; a few
boundaries also feed counters through observers.  Self time is a span's
duration minus the part of it covered by its traced children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("specfun", "quadrature", "spectrum", "fracops", "solver", "verify",
          "cli")

# Argument bands of the Mittag-Leffler evaluator, by |z|.  A call is
# attributed to a band only when every one of its arguments lies in it.
SERIES_MAX = 3.0
ASYMPTOTIC_MIN = 1e4


def _package_modules():
    pkg = importlib.import_module("fracbessel")
    mods = [pkg]
    for layer in LAYERS:
        mods.append(importlib.import_module(f"fracbessel.{layer}"))
    return mods


def public_functions(only=None) -> dict:
    """Map each public function object to its label '<layer>.<name>'."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"fracbessel.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            # functions, including lru_cache-wrapped ones; not classes
            if (callable(obj) and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == mod.__name__):
                label = f"{layer}.{name}"
                if only is None or label in only:
                    found[obj] = label
    return found


def ml_band(alpha: float, lo: float, hi: float):
    """Band of a call whose |z| spans [lo, hi], or None when mixed."""
    if hi < SERIES_MAX:
        return "series"
    if lo > ASYMPTOTIC_MIN:
        return "asymptotic"
    if lo >= SERIES_MAX and hi <= ASYMPTOTIC_MIN and alpha != 1.0:
        return "band" if alpha < 1.0 else "sharp_band"
    return None


class Tracer:
    """Records spans and counts at the public boundaries of fracbessel.

    ``only`` restricts wrapping to a set of labels; ``detail`` turns on
    the observers that inspect arguments (distinct Mittag-Leffler
    arguments, rule keys), which cost time of their own.
    """

    def __init__(self, only=None, detail: bool = True):
        self.only = only
        self.detail = detail
        self.labels = []
        self.spans = []  # (label index, start, end, parent span index)
        self.counts = defaultdict(float)
        self._stack = [(-1, -1)]  # (span index, label index)
        self._rule_keys = set()
        self._bound = []  # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers = {fn: self._wrap(fn, label)
                    for fn, label in public_functions(self.only).items()}
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._bound.append((mod, attr, val))
        return self

    def uninstall(self):
        for mod, attr, val in reversed(self._bound):
            setattr(mod, attr, val)
        self._bound.clear()

    def _wrap(self, fn, label):
        idx = len(self.labels)
        self.labels.append(label)
        observe = self._observer(label)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append((sid, idx))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, t0, t1, parent[0])
            if observe is not None:
                observe(args, kwargs, result, t1 - t0, parent[1])
            return result

        return traced

    # -- observers --------------------------------------------------------

    def _observer(self, label):
        if label == "specfun.mittag_leffler":
            return self._observe_ml
        if label in ("solver.eval_u", "solver.eval_u_derivatives"):
            return self._observe_eval
        if label == "solver.solve_modes":
            return self._observe_solve
        if not self.detail:
            return None
        if label in ("quadrature.gauss_jacobi_rule",
                     "quadrature.gauss_legendre_rule"):
            return self._observe_rule
        if label == "verify.verify_solution":
            return self._observe_verify
        return None

    def _observe_ml(self, args, kwargs, result, dt, parent):
        import numpy as np
        p = args[0] if args else kwargs["p"]
        z = np.asarray(args[1] if len(args) > 1 else kwargs["z"])
        c = self.counts
        c["ml_points"] += z.size
        if not self.detail:
            return
        if z.size == 1:
            c["ml_unique"] += 1
            lo = hi = abs(float(z.reshape(-1)[0]))
        else:
            c["ml_unique"] += np.unique(z).size
            az = np.abs(z)
            lo, hi = float(az.min()), float(az.max())
        band = ml_band(p.alpha, lo, hi)
        if band is not None:
            c[f"ml.{band}.points"] += z.size
            c[f"ml.{band}.s"] += dt

    def _observe_eval(self, args, kwargs, result, dt, parent):
        import numpy as np
        x = args[1] if len(args) > 1 else kwargs["x"]
        self.counts["eval_points"] += np.size(x)

    def _observe_solve(self, args, kwargs, result, dt, parent):
        self.counts["modes_solved"] += len(result.modes)

    def _observe_rule(self, args, kwargs, result, dt, parent):
        if parent >= 0 and self.labels[parent].startswith("quadrature."):
            return  # the Legendre rule delegating to the Jacobi one
        self.counts["rule_calls"] += 1
        key = (result.n,) + tuple(result.exponent_pair)
        if key not in self._rule_keys:
            self._rule_keys.add(key)
            self.counts["rule_builds"] += 1

    def _observe_verify(self, args, kwargs, result, dt, parent):
        # measured/tolerance over the rows that are gated against zero
        margins = [c.measured_value / c.tolerance for c in result.checks
                   if c.target_value == 0.0 and c.tolerance > 0.0]
        worst = max(margins, default=0.0)
        self.counts["verify_worst_margin"] = max(
            self.counts["verify_worst_margin"], worst)

    # -- summaries --------------------------------------------------------

    def summary(self) -> dict:
        """Per-label calls, total time and self time over all spans.

        A label that nests inside itself would have its nested part
        counted twice in total_s; no label read by total does.
        """
        child = defaultdict(float)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {lab: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for lab in self.labels}
        for sid, (idx, t0, t1, _) in enumerate(self.spans):
            rec = out[self.labels[idx]]
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child[sid]
        return out

    def write(self, path) -> None:
        """Write the span log and counts as gzip-compressed JSON."""
        doc = {"labels": self.labels,
               "columns": ["label", "start", "end", "parent"],
               "spans": self.spans,
               "counts": dict(self.counts)}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
