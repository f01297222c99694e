"""Spans and counters recorded around the public functions of ``neumann``.

Nothing under ``src/`` changes: ``install`` replaces each listed function by
a wrapper in every loaded ``neumann`` module that refers to it, so calls made
through ``from .x import f`` bindings are recorded too.  Functions called in
hot inner loops get count-only wrappers (no clock reads), so that tracing
does not distort them.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

#: functions recorded as spans: name, start, end, parent span and job id
SPANS = {
    "reduction": ("integrate_reduced",),
    "dynamics": ("integrate", "integrate_batch", "conserved_series", "drift_report",
                 "measure_period", "relative_equilibrium"),
    "separation": ("to_separated", "separation_constants", "build_polynomials",
                   "curve_from_energy", "qtilde_coeffs", "poly_from_roots"),
    "spectral": ("branch_points", "action_integral", "action_integrals",
                 "trivial_action_residue", "period_lattice"),
    "atlas": ("convexity_check", "polyhedron_limit", "equilibrium_stratum",
              "equilibrium_stratum_at_energy", "double_root_check",
              "resolve_locus_exponent", "locus_l2", "polyhedron_model"),
    "cli": ("load_config", "write_csv", "write_json", "cmd_simulate", "cmd_reduce",
            "cmd_separate", "cmd_actions", "cmd_equilibria", "cmd_locus",
            "cmd_convexity"),
}
#: hot inner functions: calls are counted per enclosing span, never timed
COUNTS = {
    "model": ("project_to_manifold",),
    "reduction": ("reduced_vector_field",),
    "spectral": ("sqrt_weight_quadrature",),
}
#: trajectory steps taken, read from the arguments (batch rows times steps)
STEPPERS = ("dynamics.integrate", "dynamics.integrate_batch", "reduction.integrate_reduced")


class Tracer:
    """In-memory span log plus counters; spans and counts only while a job runs."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent_index, job_id]
        self.stack = []
        self.counts = Counter()  # (name, enclosing span name) -> calls
        self.values = Counter()  # named work totals (steps, quadrature nodes)
        self.job = None
        self._quad_nodes = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.job])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def enclosing(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- wrappers ----------------------------------------------------------------------

    def span_wrapper(self, name, fn):
        signature = inspect.signature(fn) if name in STEPPERS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:  # input generation and oracles are not measured
                return fn(*args, **kwargs)
            if signature is not None:
                self.values[f"steps:{name}"] += _steps(signature, args, kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if name == "spectral.action_integral" and self._quad_nodes:
                    # nodes of the accepted level versus every level evaluated
                    self.values["quad_accepted"] += self._quad_nodes[-1]
                    self.values["quad_evaluated"] += sum(self._quad_nodes)
                    self._quad_nodes.clear()
        return wrapper

    def count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            self.counts[(name, self.enclosing())] += 1
            if name == "spectral.sqrt_weight_quadrature":
                self._quad_nodes.append(int(args[3] if len(args) > 3 else kwargs["n"]))
            return fn(*args, **kwargs)
        return wrapper


def _steps(signature, args, kwargs) -> int:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    steps = max(1, int(round(a["t_end"] / a["dt"])))
    rows = a["x0"].shape[0] if "x0" in a and getattr(a["x0"], "ndim", 1) == 2 else 1
    return steps * rows


def install(tracer: Tracer):
    """Point every ``neumann`` module at the tracer's wrappers; returns an undo function."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "neumann" or n.startswith("neumann."))]
    replaced = []
    for table, make in ((SPANS, tracer.span_wrapper), (COUNTS, tracer.count_wrapper)):
        for mod_name, fn_names in table.items():
            module = sys.modules[f"neumann.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                wrapped = make(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            replaced.append((mod, attr, original))

    def undo():
        for mod, attr, original in replaced:
            setattr(mod, attr, original)
    return undo


# -- aggregation -----------------------------------------------------------------------

def aggregate(spans) -> dict:
    """Per span name: calls, inclusive ns and self ns (duration minus children)."""
    child_ns = defaultdict(int)
    for name, t0, t1, parent, job in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
    for idx, (name, t0, t1, parent, job) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["ns"] += t1 - t0
        row["self_ns"] += t1 - t0 - child_ns[idx]
    return dict(out)


def merge(aggs) -> dict:
    """Sum of several ``aggregate`` results (the traced CLI children of one pass)."""
    out = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
    for agg in aggs:
        for name, row in agg.items():
            for key in ("calls", "ns", "self_ns"):
                out[name][key] += row[key]
    return dict(out)


def under(spans, name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    total = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total
