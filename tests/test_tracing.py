"""The benchmark's span tracer finds every function it reports on.

perfbench/spans.py wraps riccilab's public functions by name and raises
KeyError for a reported name it never wrapped, so a renamed or removed traced
function would otherwise only fail a traced benchmark run.  The trace runs in
a fresh interpreter because installing the tracer rebinds the package's
functions for the rest of the process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys, tempfile, time
from types import SimpleNamespace
sys.path[:0] = ["src", "perfbench"]
from spans import Tracer
tracer = Tracer()
tracer.install()
from riccilab import blowup, flows, outputs, scenario
from riccilab.scenario import FormSpec

t0 = time.perf_counter()
setup = scenario.build(scenario.make_scenario(
    name="traced", family="warped-cylinder", nx=64, ny=16, lx=20.0,
    forms=[FormSpec("main", "dtheta")], t_final=0.1, cadence=1,
    snapshot_every=2))
traj = flows.run_flow(setup)
with tempfile.TemporaryDirectory() as d:
    outputs.write_outputs(traj, d, problem=setup.problem)
    run = outputs.load_run(d)
    reloaded = SimpleNamespace(grid=run.snapshots[0].grid, snapshots=run.snapshots,
                               records=run.records)
    schedule = blowup.by_curvature_schedule(reloaded, [s.t for s in run.snapshots])
    points = blowup.rescale_trajectory(reloaded, schedule)
t1 = time.perf_counter()
layers = tracer.layer_metrics(t0, t1)
assert layers["flows.steps"] == traj.n_steps > 0, (layers["flows.steps"], traj.n_steps)
assert len(points) == len(run.snapshots) > 1
# the reduced warped path reads the gradient energy's Christoffel symbols
# straight from their stencils, and rescaling reads the scalar curvature alone:
# no Christoffel array is built
assert layers["geometry.operators.christoffel_calls"] == 0, layers
print("traced", traj.n_steps, "steps", len(traj.records), "records")
"""


def test_traced_names_exist():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("traced")
