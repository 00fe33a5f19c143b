"""Spans around the public functions of each gfpk layer.

`Tracer.active()` wraps every function in `LAYERS` in every gfpk module
that holds it (and methods on their class), records one span
(name, start, end, parent) per call, and restores the originals on exit.
Self time is a span's duration minus that of its child spans.  The
program itself carries no tracing code.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> wrapped attributes; "Class.method" wraps a method on its class
LAYERS = {
    "basis": ("ChaosBasis.eval_matrix", "ChaosBasis.lowering_table", "tensor_grid"),
    "linear": ("assemble", "solve_system", "residual", "residual_suite"),
    "nonlinear": ("fixed_point_solve",),
    "drift": ("DriftField.eval_v", "vlasov_eval"),
    "density": ("ChaosDensity.evaluate", "ChaosDensity.gradient", "as_measure"),
    "diagnostics": ("b1_bound", "tail_check", "fisher_energy", "log_moment"),
    "ladder": ("run_ladder", "marginal_distance"),
    "cli": ("density_checks",),
    "oracles": ("oracle_fd_2d",),
}


def _vlasov_pairs(args, result):
    _, p, _, grid = args
    sources = p.points.shape[0] if hasattr(p, "points") else grid.n_nodes
    return result.shape[0] * sources * result.shape[1]


# span name -> (counter name, amount of work from (args, result)), all
# computed from shapes or returned records
COUNTERS = {
    "basis.eval_matrix": ("basis.eval_matrix_mb", lambda a, r: r.size * 8 / 1e6),
    "drift.eval_v": ("drift.eval_v_points", lambda a, r: r.shape[0] if r.ndim == 2 else 1),
    "drift.vlasov_eval": ("drift.vlasov_pairs", _vlasov_pairs),
    "nonlinear.fixed_point_solve": ("nonlinear.iterations", lambda a, r: r[1].iterations),
    "ladder.run_ladder": ("ladder.levels_completed", lambda a, r: len(r.levels)),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict = defaultdict(float)
        self._stack: list = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    @contextmanager
    def active(self):
        """Patch every layer function for the duration of the block."""
        restore = []
        packages = [m for n, m in sys.modules.items() if n == "gfpk" or n.startswith("gfpk.")]
        try:
            for module_name, attrs in LAYERS.items():
                module = sys.modules[f"gfpk.{module_name}"]
                for attr in attrs:
                    owner_name, _, method = attr.rpartition(".")
                    span = f"{module_name}.{method}"
                    if owner_name:
                        owner = getattr(module, owner_name)
                        original = owner.__dict__[method]
                        restore.append((owner, method, original))
                        setattr(owner, method, self._wrap(span, original))
                        continue
                    original = getattr(module, method)
                    wrapped = self._wrap(span, original)
                    for holder in packages:
                        for key, value in list(vars(holder).items()):
                            if value is original:
                                restore.append((holder, key, original))
                                setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, original in reversed(restore):
                setattr(holder, key, original)

    def summary(self) -> tuple[dict, float]:
        """({span name: calls, inclusive and self seconds}, seconds covered
        by root spans)."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        root = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child_time[index]
            if parent < 0:
                root += end - start
        return dict(out), root


SELF_TIME = tuple(f"{m}.{a.rpartition('.')[2]}" for m, attrs in LAYERS.items() for a in attrs)
CALLS = (
    "basis.eval_matrix",
    "basis.lowering_table",
    "linear.assemble",
    "linear.solve_system",
    "linear.residual",
    "drift.eval_v",
    "density.evaluate",
    "density.as_measure",
    "cli.density_checks",
)
INCLUSIVE = (
    "linear.assemble",
    "nonlinear.fixed_point_solve",
    "ladder.run_ladder",
    "cli.density_checks",
)
COUNTER_UNITS = {
    "basis.eval_matrix_mb": "MB",
    "drift.eval_v_points": "count",
    "drift.vlasov_pairs": "count",
    "nonlinear.iterations": "count",
    "ladder.levels_completed": "count",
}


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer metrics: `<span>_s` self seconds, `<span>_calls`,
    `<span>_incl_s` inclusive seconds, the shape counters and seconds per
    fixed-point iteration.  Layers a workload never enters read 0."""
    rows, _ = tracer.summary()
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    metrics = {}
    for name in SELF_TIME:
        metrics[f"{name}_s"] = (rows.get(name, empty)["self_s"] / passes, "s")
    for name in CALLS:
        metrics[f"{name}_calls"] = (rows.get(name, empty)["calls"] / passes, "count")
    for name in INCLUSIVE:
        metrics[f"{name}_incl_s"] = (rows.get(name, empty)["incl_s"] / passes, "s")
    for name, unit in COUNTER_UNITS.items():
        metrics[name] = (tracer.counts.get(name, 0.0) / passes, unit)
    iterations = tracer.counts.get("nonlinear.iterations", 0.0)
    solve_s = rows.get("nonlinear.fixed_point_solve", empty)["incl_s"]
    metrics["nonlinear.s_per_iteration"] = (solve_s / iterations if iterations else 0.0, "s")
    return metrics
