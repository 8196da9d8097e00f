"""One benchmark iteration in a fresh interpreter.

Imports riccilab from the checkout's src/, parses and builds the scenario,
runs it to its horizon, writes the run directory and, for reload workloads,
reads it back and rescales it by curvature.  Then it checks the results and
prints one JSON line: timings, peak RSS, the monitors.csv digest, the checks
that failed and, when traced, the per-layer metrics.

    python3 perfbench/worker.py --workload W --input FILE --out DIR
        --spawned-at T [--trace]

T is the CLOCK_MONOTONIC reading taken just before this process was started,
so setup_s includes interpreter start-up.
"""

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from workloads import WORKLOADS


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    import riccilab
    src = (Path.cwd() / "src").resolve()
    if src not in Path(riccilab.__file__).resolve().parents:
        raise RuntimeError(f"riccilab imported from {riccilab.__file__}, not from {src}")
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import numpy
    from riccilab import blowup, flows, functionals, outputs, scenario

    text = Path(args.input).read_text()
    setup = scenario.build(scenario.parse_scenario(text))
    setup_s = now() - args.spawned_at

    run_dir = Path(args.out) / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    reloaded = schedule = points = None
    t0, cpu0 = time.perf_counter(), time.process_time()
    traj = flows.run_flow(setup)
    summary = outputs.write_outputs(traj, run_dir, problem=setup.problem)
    if workload.reload:
        run = outputs.load_run(run_dir)
        reloaded = SimpleNamespace(grid=run.snapshots[0].grid, snapshots=run.snapshots,
                                   records=run.records)
        schedule = blowup.by_curvature_schedule(reloaded, [s.t for s in run.snapshots])
        points = blowup.rescale_trajectory(reloaded, schedule)
    t1, cpu1 = time.perf_counter(), time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.recording = False

    failures = []
    if traj.status != flows.COMPLETED:
        failures.append(f"status {traj.status}")
    if not summary["all_pass"]:
        failures.append("summary.json has a failing verdict")
    for key in workload.required_verdicts:
        if not summary["verdicts"].get(key, {}).get("pass", False):
            failures.append(f"verdict {key} missing or failing")
    if workload.sup_r_range is not None:
        lo, hi = workload.sup_r_range
        sup = [r.sup_R for r in traj.records]
        if not (lo <= min(sup) and max(sup) <= hi):
            failures.append(f"sup R in [{min(sup)!r}, {max(sup)!r}], outside [{lo}, {hi}]")
    if workload.reload:
        cycle = functionals.ThetaCircle(reloaded.grid.origin[0])
        if not blowup.length_scaling_check(reloaded, schedule, cycle)["sqrt_law_holds"]:
            failures.append("length_scaling_check: sqrt law fails on reloaded snapshots")
        if len(reloaded.snapshots) != len(traj.snapshots):
            failures.append("reloaded snapshot count differs")
        if len(points) != len(schedule.entries):
            failures.append(f"rescale_trajectory returned {len(points)} points "
                            f"for {len(schedule.entries)} schedule entries")
        fields = ("t", "dt", "sup_R", "min_R", "vol", "values", "grid_hash")
        if len(run.records) != len(traj.records) or any(
                getattr(a, f) != getattr(b, f)
                for a, b in zip(run.records, traj.records) for f in fields):
            failures.append("reloaded records differ from the in-memory ones")

    result = {
        "ok": not failures,
        "failures": failures,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "n_steps": traj.n_steps,
        "digest": hashlib.sha256((run_dir / "monitors.csv").read_bytes()).hexdigest(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(t0, t1)
        files = [p for p in run_dir.rglob("*") if p.is_file()]
        layers["outputs.snapshots"] = sum(p.suffix == ".bin" for p in files)
        layers["outputs.write_mb"] = sum(p.stat().st_size for p in files) / 1e6
        layers["blowup.points"] = len(points) if points is not None else 0
        if layers["flows.steps"] != traj.n_steps:
            failures.append(f"traced flows.steps {layers['flows.steps']} != "
                            f"n_steps {traj.n_steps}")
        if layers["trace.coverage_frac"] < 0.9:
            failures.append(f"top-level spans cover only "
                            f"{layers['trace.coverage_frac']:.3f} of the timed region")
        result["ok"] = not failures
        result["layers"] = layers
        tracer.write(Path(args.out) / "spans.csv")
    shutil.rmtree(run_dir)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    try:
        result = run(args)
    except Exception as e:  # noqa: BLE001 - any raise is a failed run, reported as such
        traceback.print_exc()
        result = {"ok": False, "failures": [f"raised {type(e).__name__}: {e}"]}
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
