"""Per-layer timings of riccilab's kernels, written as one column of a BENCH file.

    python3 bench/layers.py --src DIR --out FILE [--column NAME]

Imports riccilab from DIR (the src/ directory of a checkout) and times each
layer on fixed grids: a periodic 128^2 torus, a truncated 257^2 plane (the
cigar's) and a 512x64 cylinder (the neck's), and, where the imported riccilab
steps theta-invariant states as (nx, 1) columns, the 128x1 and 512x1 columns
of the torus and the cylinder.  In one process each figure is the median, in
microseconds, of single calls timed with time.perf_counter after one warm-up
call.  The layers are timed in PROCESSES fresh interpreters, one after the
other; the column holds each layer's median over them and "spreads" its
minimum and maximum, so a layer whose processes disagree shows it.
Operators get one bundle for all their calls, so the warm-up computes
the parts they read and they are timed alone; each full-grid one is timed on
its tagged metric and, as the reference cost, on its general-tagged copy
general_metric(g.gxx, g.gxt, g.gtt) (the `.general` entries).  grad_norm_sq
drops the bundle's cached Christoffel symbols before each call, as a run reads
them once per record bundle.  det g and the inverse
are timed on their own, monitor_record with a fresh bundle per call, as a
run builds one per state, and integrate with one bundle.
run_flow_step.cigar257 is run_flow of the perfbench cigar workload's seed-0
setup with no snapshot and no record between the first and the last, per
step: the time for 2 RUN_STEPS steps less the time for RUN_STEPS steps,
over RUN_STEPS, so the work of the two records at the ends cancels.
conformal_rate.cigar129 is one stage rate with its CFL bounds,
_rhs(..., with_cfl=True), of that setup's seed state in the layout
flows._reduce gives it (the 129^2 quadrant), timed alone.  On that
quadrant's u, diff2_half.cigar129 is Grid2D.diff2_half along x, where the
imported riccilab has it, and diff2_pad_cut.cigar129 the composition it
replaces: two mirror rows put before u (np.pad's "reflect"), diff_x twice,
and the two rows cut off.
write_snapshots.neck is outputs.write_snapshots of the perfbench
neck-snapshots workload's seed-0 run, rewriting one directory per call, and
load_run.neck is outputs.load_run of that run, written once by
write_outputs.  StateLayout.pack and .unpack time tests/state_vectors.py's
pack of a full state and StateLayout.unpack of its vector.

FILE holds {"unit", "statistic", "spread", "machine", "columns": {NAME:
{layer: us}}, "spreads": {NAME: {layer: [min, max]}}}.  An existing FILE keeps
its other columns, so runs on two checkouts, one after the other on the same
machine, fill one before/after file.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MIN_SAMPLES, MAX_SAMPLES, BUDGET_S = 7, 2000, 0.4
PROCESSES = 5
RUN_STEPS = 40
ROOT = Path(__file__).resolve().parents[1]


def median_us(fn) -> float:
    fn()
    samples, spent = [], 0.0
    while len(samples) < MIN_SAMPLES or (spent < BUDGET_S and len(samples) < MAX_SAMPLES):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        samples.append(dt)
        spent += dt
    return 1e6 * statistics.median(samples)


def layers() -> dict:
    import numpy as np
    from riccilab.flows import FlowProblem, FlowState, _reduce, _rhs, monitor_record, run_flow
    from riccilab.functionals import integrate
    from riccilab.geometry import (Grid2D, MetricInvariants, OneFormField,
                                   codifferential, conformal_metric, curvature_reduced,
                                   general_metric, grad_norm_sq, hodge_laplacian,
                                   laplace_beltrami, reduced_scalar_curvature,
                                   warped_metric)
    from riccilab.outputs import load_run, write_outputs, write_snapshots
    from riccilab.scenario import build, parse_scenario
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    from state_vectors import layout_of, pack
    from workloads import WORKLOADS, scenario_text

    rng = np.random.default_rng(0)
    torus = Grid2D.torus(128, 128)
    plane = Grid2D.plane(257, 257, 16.0, 16.0)
    cylinder = Grid2D.cylinder(512, 64, 20.0)
    out = {}

    for label, grid in (("torus128", torus), ("plane257", plane),
                        ("cylinder512x64", cylinder)):
        a = rng.standard_normal((grid.nx, grid.ny))
        out[f"diff_x.{label}"] = median_us(lambda: grid.diff_x(a))
        out[f"diff_t.{label}"] = median_us(lambda: grid.diff_t(a))

    X, T = plane.mesh()
    cigar = conformal_metric(plane, -0.5 * np.log1p(X ** 2 + T ** 2))
    x = cylinder.x
    neck = warped_metric(cylinder, np.ones_like(x), 2.0 - np.exp(-x ** 2))
    for label, g in (("conformal257", cigar), ("warped512x64", neck)):
        d = g.det()
        out[f"det.{label}"] = median_us(g.det)
        out[f"inv.{label}"] = median_us(lambda: g.inv(d))

    X, T = torus.mesh()
    metrics = {"128": (torus, conformal_metric(torus, 0.3 * np.sin(X) * np.cos(T))),
               "257": (plane, cigar), "512x64": (cylinder, neck)}
    if "width" in inspect.signature(warped_metric).parameters:   # steps (nx, 1) columns
        metrics["128x1"] = (torus, conformal_metric(torus, 0.3 * np.sin(X[:, :1])))
        metrics["512x1"] = (cylinder, warped_metric(cylinder, np.ones_like(x),
                                                    2.0 - np.exp(-x ** 2), width=1))
    for n, (grid, g) in metrics.items():
        width = g.gxx.shape[1]
        X, T = (c[:, :width] for c in grid.mesh())
        phi = OneFormField(np.sin(X) * np.cos(T), np.cos(X + T))
        F = np.sin(X + 2 * T)
        variants = [(g, "")]
        if width == grid.ny:
            variants.append((general_metric(g.gxx, g.gxt, g.gtt), ".general"))
        for metric, suffix in variants:
            geo = MetricInvariants(metric, grid)   # parts computed by the warm-up call
            out[f"codifferential.{n}{suffix}"] = median_us(
                lambda: codifferential(phi, geo))
            out[f"hodge_laplacian_dd.{n}{suffix}"] = median_us(
                lambda: hodge_laplacian(phi, geo, "dd"))
            out[f"laplace_beltrami.{n}{suffix}"] = median_us(
                lambda: laplace_beltrami(F, geo))
            out[f"grad_norm_sq.{n}{suffix}"] = median_us(
                lambda: (geo.__dict__.pop("gamma", None), grad_norm_sq(phi, geo)))
            if width == grid.ny:
                out[f"norm_sq.{n}{suffix}"] = median_us(lambda: phi.norm_sq(geo))

        state = FlowState(0.0, grid, g, {"main": phi}, F.copy(), 1.0 + 0.5 * np.cos(X))
        problem = FlowProblem()
        out[f"monitor_record.{n}"] = median_us(
            lambda: monitor_record(state, problem, 1e-4, MetricInvariants(g, grid)))
        geo = MetricInvariants(g, grid)
        out[f"integrate.{n}"] = median_us(lambda: integrate(F, geo))
        if n not in ("128", "257"):
            continue
        geo = MetricInvariants(g, grid)
        out[f"reduced_scalar_curvature.{n}"] = median_us(
            lambda: reduced_scalar_curvature(g, grid))
        out[f"curvature_reduced.{n}"] = median_us(lambda: curvature_reduced(g, geo.scalar))
        layout = layout_of(state)
        vec = pack(layout, state)
        out[f"StateLayout.pack.{n}"] = median_us(lambda: pack(layout, state))
        out[f"StateLayout.unpack.{n}"] = median_us(lambda: layout.unpack(vec))

    setup = build(parse_scenario(scenario_text(WORKLOADS["cigar"], 0)))
    layout, vec, problem = _reduce(setup.state, setup.problem)
    out["conformal_rate.cigar129"] = median_us(
        lambda: _rhs(vec, layout, problem, with_cfl=True))
    grid, quadrant = layout.grid, layout.parts(vec)[0][0]
    if hasattr(grid, "diff2_half"):
        out["diff2_half.cigar129"] = median_us(lambda: grid.diff2_half(quadrant, 0))
    out["diff2_pad_cut.cigar129"] = median_us(lambda: grid.diff_x(grid.diff_x(
        np.pad(quadrant, ((2, 0), (0, 0)), mode="reflect")))[2:])
    per_run = []
    for steps in (RUN_STEPS, 2 * RUN_STEPS):
        capped = dataclasses.replace(setup, integrator=dataclasses.replace(
            setup.integrator, max_steps=steps, cadence=steps + 1))
        per_run.append(median_us(lambda: run_flow(capped, collect_snapshots=False)))
    out["run_flow_step.cigar257"] = (per_run[1] - per_run[0]) / RUN_STEPS

    traj = run_flow(build(parse_scenario(scenario_text(WORKLOADS["neck-snapshots"], 0))))
    with tempfile.TemporaryDirectory() as tmp:
        out["write_snapshots.neck"] = median_us(lambda: write_snapshots(traj, tmp))
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(traj, tmp)
        out["load_run.neck"] = median_us(lambda: load_run(tmp))
    return out


def fresh_process_layers(src: Path) -> dict:
    """layers() in a new interpreter importing riccilab from `src`."""
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; from layers import layers; "
            "print(json.dumps(layers()))")
    run = subprocess.run([sys.executable, "-c", code, str(src), str(Path(__file__).parent)],
                         check=True, capture_output=True, text=True)
    return json.loads(run.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="the src/ directory riccilab is imported from")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH json file")
    parser.add_argument("--column", default="change", help="column name (default: change)")
    args = parser.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import numpy
    import riccilab
    if src not in Path(riccilab.__file__).resolve().parents:
        print(f"riccilab imported from {riccilab.__file__}, not from {src}", file=sys.stderr)
        return 2

    runs = [fresh_process_layers(src) for _ in range(PROCESSES)]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "unit": "us",
        "statistic": (f"median over {PROCESSES} fresh processes of each process's "
                      "median of single-call time.perf_counter samples"),
        "spread": "min and max over the processes",
        "machine": {"nproc": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
    })
    doc.setdefault("columns", {})[args.column] = {
        k: round(statistics.median(r[k] for r in runs), 2) for k in runs[0]}
    doc.setdefault("spreads", {})[args.column] = {
        k: [round(min(r[k] for r in runs), 2), round(max(r[k] for r in runs), 2)]
        for k in runs[0]}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["columns"][args.column]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
