"""Outside-in layer trace: wrap the library's public functions, record spans.

``Tracer.install`` wraps every public function defined in the five layer
modules (grids, operators, solver, observables, potentials) and rebinds the
wrapper at every module attribute of the package that binds the original,
so intra-module calls and re-exports are traced alike. ``Potential.norms``
(a cached property) is wrapped in place, and ``RadialField`` constructions
are counted without a span.

A span is (name, start, end, parent). Spans are kept in memory and written
out once, at the end. Counts are read at the same boundaries, from what the
wrapped call returns: ``LinearSolveReport.iterations``/``converged``,
``SolutionState.iterations``/``scheme_used`` and ``BoundAudit.failures()``.
Work the library routes around these public functions is not seen.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter

LAYERS = ("grids", "operators", "solver", "observables", "potentials")
TRANSFORMS = ("grids.fourier_radial", "grids.inverse_fourier_radial")
TAIL = ("solver.fit_tail_model", "solver.corrected_field_integral")
BUILDERS = ("potentials.gaussian_potential", "potentials.explicit_potential",
            "potentials.tabulated_potential", "potentials.potential_from_file")

# name -> unit of every per-layer metric, in the order they are reported.
METRICS = {
    "grids.transforms": "count",
    "grids.transform_points": "count",
    "grids.transform_s": "s",
    "grids.field_inits": "count",
    "operators.frakKe_solves": "count",
    "operators.frakKe_iters": "count",
    "operators.frakKe_iters_per_solve": "count",
    "operators.frakKe_s": "s",
    "operators.Ke_solves": "count",
    "operators.Ke_iters": "count",
    "operators.Ke_iters_per_solve": "count",
    "operators.Ke_s": "s",
    "operators.unconverged": "count",
    "solver.solves": "count",
    "solver.outer_iters": "count",
    "solver.warm_outer_iters_per_solve": "count",
    "solver.fallbacks": "count",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.tail_calls": "count",
    "solver.tail_s": "s",
    "solver.rho_prime_s": "s",
    "observables.report_s": "s",
    "observables.audit_s": "s",
    "observables.audit_failed": "count",
    "potentials.build_s": "s",
    "potentials.norms_s": "s",
    "potentials.a0_s": "s",
}


class Tracer:
    """Span recorder for one process; install once, summarise once."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.pauses: list[tuple[float, float]] = []   # excluded from spans
        self.t_install = None
        self.t_finish = None

    # -- wrapping -------------------------------------------------------

    def wrap(self, name, fn, on_return=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap the layer functions at every binding in the package."""
        import bosegas

        modules = [bosegas] + [importlib.import_module(f"bosegas.{info.name}")
                               for info in pkgutil.iter_modules(bosegas.__path__)]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bosegas.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self.wrap(name, obj, self._counter(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

        potentials = importlib.import_module("bosegas.potentials")
        norms = potentials.Potential.__dict__["norms"]
        traced = functools.cached_property(self.wrap("potentials.norms", norms.func))
        traced.__set_name__(potentials.Potential, "norms")
        potentials.Potential.norms = traced

        grids = importlib.import_module("bosegas.grids")
        post_init = grids.RadialField.__post_init__
        counts = self.counts

        def counted_post_init(field_self):
            counts["field_inits"] += 1
            post_init(field_self)

        grids.RadialField.__post_init__ = counted_post_init
        self.t_install = time.perf_counter()

    def _counter(self, name):
        """Boundary reader that turns a call's result into counts."""
        counts = self.counts
        if name in TRANSFORMS:
            def read(args, kwargs, result):
                counts["transform_points"] += result.grid.n
        elif name in ("operators.apply_frakKe", "operators.apply_Ke"):
            key = "frakKe" if name.endswith("frakKe") else "Ke"

            def read(args, kwargs, result):
                report = result[1]
                counts[f"{key}_iters"] += report.iterations
                counts["unconverged"] += not report.converged
        elif name == "solver.solve_fixed_e":
            def read(args, kwargs, result):
                warm = (kwargs["u0"] if "u0" in kwargs
                        else args[3] if len(args) > 3 else None) is not None
                counts["outer_iters"] += result.iterations
                counts["fallbacks"] += "fallback" in result.scheme_used
                if warm:
                    counts["warm_solves"] += 1
                    counts["warm_outer_iters"] += result.iterations
        elif name == "observables.bound_audit":
            def read(args, kwargs, result):
                counts["audit_failed"] += len(result.failures())
        else:
            return None
        return read

    # -- summaries ------------------------------------------------------

    def finish(self):
        self.t_finish = time.perf_counter()

    def durations(self) -> list[float]:
        """Span lengths less the reference-kernel pauses inside them."""
        starts = [a for a, _ in self.pauses]
        cum = [0.0]
        for a, b in self.pauses:
            cum.append(cum[-1] + (b - a))
        out = []
        for t0, t1 in zip(self.starts, self.ends):
            lo = bisect.bisect_left(starts, t0)
            hi = bisect.bisect_left(starts, t1)
            out.append(t1 - t0 - (cum[hi] - cum[lo]))
        return out

    def span_stats(self):
        """Per-name calls, busy time (outermost spans only) and self time."""
        n = len(self.names)
        durations = self.durations()
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += durations[i]
        calls, busy, self_time = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[i]
            duration = durations[i]
            calls[name] += 1
            self_time[name] += duration - child_time[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                busy[name] += duration
        return calls, busy, self_time

    def check(self) -> list[str]:
        """Problems with the span tree: bad nesting, self time beyond wall."""
        problems = []
        for i in range(len(self.names)):
            if self.ends[i] < self.starts[i]:
                problems.append(f"span {i} ({self.names[i]}) ends before it starts")
            p = self.parents[i]
            if p >= 0 and not (self.starts[p] <= self.starts[i]
                               and self.ends[i] <= self.ends[p]):
                problems.append(f"span {i} ({self.names[i]}) leaves its parent "
                                f"{p} ({self.names[p]})")
            if len(problems) > 10:
                break
        _, _, self_time = self.span_stats()
        wall = self.t_finish - self.t_install - sum(
            b - a for a, b in self.pauses if self.t_install <= a and b <= self.t_finish)
        total_self = sum(self_time.values())
        if total_self > wall:
            problems.append(f"self times sum to {total_self:.6f} s, above the "
                            f"traced wall {wall:.6f} s")
        return problems

    def metrics(self) -> dict:
        calls, busy, self_time = self.span_stats()
        c = self.counts

        def per(total, solves):
            return total / solves if solves else 0.0

        layer_self = Counter()
        for name, value in self_time.items():
            layer_self[name.split(".", 1)[0]] += value
        frak, ke = calls["operators.apply_frakKe"], calls["operators.apply_Ke"]
        return {
            "grids.transforms": sum(calls[t] for t in TRANSFORMS),
            "grids.transform_points": c["transform_points"],
            "grids.transform_s": sum(self_time[t] for t in TRANSFORMS),
            "grids.field_inits": c["field_inits"],
            "operators.frakKe_solves": frak,
            "operators.frakKe_iters": c["frakKe_iters"],
            "operators.frakKe_iters_per_solve": per(c["frakKe_iters"], frak),
            "operators.frakKe_s": busy["operators.apply_frakKe"],
            "operators.Ke_solves": ke,
            "operators.Ke_iters": c["Ke_iters"],
            "operators.Ke_iters_per_solve": per(c["Ke_iters"], ke),
            "operators.Ke_s": busy["operators.apply_Ke"],
            "operators.unconverged": c["unconverged"],
            "solver.solves": calls["solver.solve_fixed_e"],
            "solver.outer_iters": c["outer_iters"],
            "solver.warm_outer_iters_per_solve": per(c["warm_outer_iters"],
                                                     c["warm_solves"]),
            "solver.fallbacks": c["fallbacks"],
            "solver.solve_s": busy["solver.solve_fixed_e"],
            "solver.self_s": layer_self["solver"],
            "solver.tail_calls": sum(calls[t] for t in TAIL),
            "solver.tail_s": sum(busy[t] for t in TAIL),
            "solver.rho_prime_s": busy["solver.rho_prime"],
            "observables.report_s": busy["observables.observables_report"],
            "observables.audit_s": busy["observables.bound_audit"],
            "observables.audit_failed": c["audit_failed"],
            "potentials.build_s": sum(busy[b] for b in BUILDERS),
            "potentials.norms_s": busy["potentials.norms"],
            "potentials.a0_s": busy["potentials.scattering_length"],
        }

    def write(self, path):
        """Spans as JSON lines: name, start and end (s from install), parent.

        The first line lists the reference-kernel pauses on the same clock.
        """
        t0 = self.t_install
        with open(path, "w") as fh:
            fh.write(json.dumps({"pauses": [[a - t0, b - t0] for a, b in self.pauses]})
                     + "\n")
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"i": i, "name": name,
                                     "start": self.starts[i] - t0,
                                     "end": self.ends[i] - t0,
                                     "parent": self.parents[i]}) + "\n")
