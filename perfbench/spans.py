"""Span tracing from outside the package.

`Tracer.install` wraps every public function of each layer module, plus the
stencil and metric-invariant methods, so that each call records one span
(name, start, end, parent).  The package binds names with `from .x import y`,
so each wrapper replaces the function under every name any riccilab module
binds it to.  Spans stay in memory until `write` and `layer_metrics`, which
run after the timed region.

Self time is a span's duration minus the durations of its direct child spans.
An `_ms` metric named for a function is inclusive: the summed duration of its
spans that are not nested in another span of the same function group.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("scenario", "flows", "geometry.grid", "geometry.fields",
          "geometry.operators", "functionals", "outputs", "blowup")
METHODS = {
    "geometry.grid": ("Grid2D", ("diff_x", "diff_t")),
    "geometry.fields": ("MetricField", ("det", "inv", "sqrt_det", "require_spd")),
}
STENCILS = ("geometry.grid.Grid2D.diff_x", "geometry.grid.Grid2D.diff_t")

# Every per-layer metric the traced run reports, with its unit.  The worker
# measures outputs.snapshots, outputs.write_mb (on disk) and blowup.points
# (from returned values); the driver computes trace.overhead_frac.
LAYER_UNITS = {
    "scenario.build_ms": "ms",
    "flows.steps": "count",
    "flows.cfl_calls": "count",
    "flows.cfl_ms": "ms",
    "flows.step_ms_p50": "ms",
    "flows.step_ms_p90": "ms",
    "flows.step_self_ms": "ms",
    "flows.monitor_calls": "count",
    "flows.monitor_ms": "ms",
    "geometry.grid.stencil_calls": "count",
    "geometry.grid.stencil_ms": "ms",
    "geometry.grid.stencil_us_per_call": "us",
    "geometry.grid.stencil_mb_computed": "MB",
    "geometry.fields.det_calls": "count",
    "geometry.fields.invariants_ms": "ms",
    "geometry.fields.spd_checks": "count",
    "geometry.fields.spd_ms": "ms",
    "geometry.operators.hodge_calls": "count",
    "geometry.operators.hodge_ms": "ms",
    "geometry.operators.codiff_calls": "count",
    "geometry.operators.codiff_ms": "ms",
    "geometry.operators.lb_calls": "count",
    "geometry.operators.lb_ms": "ms",
    "geometry.operators.curvature_calls": "count",
    "geometry.operators.curvature_ms": "ms",
    "geometry.operators.christoffel_calls": "count",
    "geometry.operators.christoffel_ms": "ms",
    "geometry.operators.grad_energy_ms": "ms",
    "functionals.quadrature_calls": "count",
    "functionals.norms_ms": "ms",
    "functionals.circumference_ms": "ms",
    "outputs.write_ms": "ms",
    "outputs.load_ms": "ms",
    "blowup.rescale_ms": "ms",
    "trace.coverage_frac": "ratio",
    "outputs.snapshots": "count",
    "outputs.write_mb": "MB",
    "blowup.points": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stencil_bytes = 0
        self.recording = True
        self.wrapped: set[str] = set()
        self._stack = [-1]

    def _wrap(self, name, fn, stencil=False):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        clock = time.perf_counter
        tracer = self
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if stencil:                 # args = (grid, array): read once, written once
                tracer.stencil_bytes += 2 * args[1].nbytes
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(math.nan)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        layer_modules = {layer: importlib.import_module(f"riccilab.{layer}")
                         for layer in LAYERS}
        bound = [m for n, m in sys.modules.items()
                 if n == "riccilab" or n.startswith("riccilab.")]
        for layer, mod in layer_modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for other in bound:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, traced)
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(layer_modules[layer], cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                setattr(cls, meth, self._wrap(name, getattr(cls, meth),
                                              stencil=name in STENCILS))

    def write(self, path) -> None:
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as out:
            out.write("name,start_s,end_s,parent\n")
            for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents):
                out.write(f"{name},{s - origin!r},{e - origin!r},{p}\n")

    def layer_metrics(self, t0: float, t1: float) -> dict:
        """Per-layer metrics from the recorded spans; t0 and t1 bound the timed
        region, which top-level spans must cover."""
        n = len(self.names)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        by_name = defaultdict(list)
        for i, name in enumerate(self.names):
            by_name[name].append(i)

        def spans(names):
            unknown = set(names) - self.wrapped
            if unknown:
                raise KeyError(f"no traced function named {sorted(unknown)}")
            return [i for name in names for i in by_name[name]]

        def count(*names):
            return len(spans(names))

        def self_ms(*names):
            return 1e3 * sum(own[i] for i in spans(names))

        def outer(names):
            """Spans of the group that no other span of the group encloses."""
            group = set(names)
            spans(group)
            inside = [False] * n
            found = []
            for i, name in enumerate(self.names):
                p = self.parents[i]
                enclosed = p >= 0 and inside[p]
                if name in group and not enclosed:
                    found.append(i)
                inside[i] = enclosed or name in group
            return found

        def inclusive_ms(*names):
            return 1e3 * sum(dur[i] for i in outer(names))

        ops = "geometry.operators."
        det, inv, sqrt_det, spd = (f"geometry.fields.MetricField.{m}"
                                   for m in ("det", "inv", "sqrt_det", "require_spd"))
        curvature = (ops + "curvature", ops + "curvature_reduced",
                     ops + "reduced_scalar_curvature")
        steps_ms = sorted(1e3 * dur[i] for i in spans(["flows.flow_step"]))
        stencil_calls = count(*STENCILS)
        stencil_ms = self_ms(*STENCILS)
        top = sum(dur[i] for i in range(n) if self.parents[i] < 0
                  and self.starts[i] >= t0 and self.ends[i] <= t1)
        return {
            "scenario.build_ms": inclusive_ms("scenario.build"),
            "flows.steps": len(steps_ms),
            "flows.cfl_calls": count("flows.cfl_dt"),
            "flows.cfl_ms": inclusive_ms("flows.cfl_dt"),
            "flows.step_ms_p50": statistics.median(steps_ms) if steps_ms else 0.0,
            "flows.step_ms_p90": (steps_ms[math.ceil(0.9 * len(steps_ms)) - 1]
                                  if steps_ms else 0.0),
            "flows.step_self_ms": self_ms("flows.flow_step"),
            "flows.monitor_calls": count("flows.monitor_record"),
            "flows.monitor_ms": inclusive_ms("flows.monitor_record"),
            "geometry.grid.stencil_calls": stencil_calls,
            "geometry.grid.stencil_ms": stencil_ms,
            "geometry.grid.stencil_us_per_call":
                1e3 * stencil_ms / stencil_calls if stencil_calls else 0.0,
            "geometry.grid.stencil_mb_computed": self.stencil_bytes / 1e6,
            "geometry.fields.det_calls": count(det),
            "geometry.fields.invariants_ms": self_ms(det, inv, sqrt_det),
            "geometry.fields.spd_checks": count(spd),
            "geometry.fields.spd_ms": self_ms(spd),
            "geometry.operators.hodge_calls": count(ops + "hodge_laplacian"),
            "geometry.operators.hodge_ms": inclusive_ms(ops + "hodge_laplacian"),
            "geometry.operators.codiff_calls": count(ops + "codifferential"),
            "geometry.operators.codiff_ms": inclusive_ms(ops + "codifferential"),
            "geometry.operators.lb_calls": count(ops + "laplace_beltrami"),
            "geometry.operators.lb_ms": inclusive_ms(ops + "laplace_beltrami"),
            "geometry.operators.curvature_calls": len(outer(curvature)),
            "geometry.operators.curvature_ms": inclusive_ms(*curvature),
            "geometry.operators.christoffel_calls": count(ops + "christoffel"),
            "geometry.operators.christoffel_ms": inclusive_ms(ops + "christoffel"),
            "geometry.operators.grad_energy_ms": inclusive_ms(ops + "grad_norm_sq"),
            "functionals.quadrature_calls": count("functionals.integrate"),
            "functionals.norms_ms": inclusive_ms(
                "functionals.l2_norm_form", "functionals.sup_norm_form",
                "functionals.sup_norm_form_argmax", "functionals.lp_norm_scalar"),
            "functionals.circumference_ms": inclusive_ms(
                "functionals.min_circumference", "functionals.loop_length"),
            "outputs.write_ms": inclusive_ms("outputs.write_outputs"),
            "outputs.load_ms": inclusive_ms("outputs.load_run"),
            "blowup.rescale_ms": inclusive_ms("blowup.by_curvature_schedule",
                                              "blowup.rescale_trajectory"),
            "trace.coverage_frac": top / (t1 - t0),
        }
