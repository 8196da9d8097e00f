"""Seed-0 output digests of every benchmark workload and shipped scenario.

    python3 bench/digests.py --src DIR

Imports riccilab from DIR (the src/ directory of a checkout) and runs each
perfbench workload's seed-0 scenario and each scenarios/*.cfg of this
checkout through parse_scenario -> build -> run_flow -> write_outputs, in a
temporary directory.  Prints one line per run: its name, status, step count,
the sha256 of monitors.csv, of the snapshots (each one's t, step, window,
field names and shapes and vector bytes as run_flow spilled it, read in
memory through SpilledSnapshots.stepped, so the digest does not depend on
how write_outputs lays snapshots out in files) and of summary.json without
its scenario_hash.  A run with snapshots also prints rescale=, the sha256 of
the JSON of the points rescale_trajectory measures on the run reloaded with
load_run, along the by-curvature schedule at every snapshot time (unit
factors on a flat run, which that policy rejects): it digests what reloading
feeds the rescaling.
Every line ends with verdicts=, each summary.json verdict as name:pass:checked
(or name:fail:checked), sorted by name: a change whose arithmetic moves the
digests can show that every verdict held, on as many checks.  Runs on two
checkouts print the same lines when their outputs agree byte for byte;
scenario_hash is left out because it hashes the serialized spec, which
changes whenever a key is added or retired.  scenarios/cigar.cfg takes about
7.5 s on a 2-vCPU x86_64 host (about 10 s on a riccilab that pads its
quadrant with mirror rows, about 15 s on one that takes both second
differences of it, and about 56 s on one that steps the whole 257^2 grid, as
--against PARENT may).

    python3 bench/digests.py --src DIR --against PARENT

also runs every scenario on the riccilab of PARENT (the src/ directory of
the parent checkout, in a child interpreter) and, after the digest lines,
prints a drift report for each run: whether the step counts and the
verdicts= lines are equal and whether the parent's digest line is
identical to the change's (lines=identical, else lines=differ and the
parent's line below it), then one line per monitors.csv column and per
snapshot field (over all snapshots) with its largest drift from the
parent's.  rel= is max |change - parent| over the column's largest
|parent|, and ulp= is max |change - parent| in units in the last place of
that largest |parent|, so a field's nodes near zero swamp neither figure.
A column whose largest |parent| is below NEAR_ZERO (rounding residue such
as gauge_gap, or u_curv_mass on a torus) reports abs=, max |change -
parent|, in their place, and a column whose shape differs between the runs
reports shape= alone.  Each snapshot field is widened to the full grid
through its layout's window, in the process that ran it, and saved beside
its run directory (fields_path) before it is compared, so a run that
stepped a column or a quadrant and a run that stepped the full grid show
the drift of their values, and neither side reads the other's files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
NEAR_ZERO = 1e-12


def runs() -> list:
    """(name, scenario text) of every run, the workloads first."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, scenario_text
    out = [(f"perfbench/{name}", scenario_text(w, 0)) for name, w in WORKLOADS.items()]
    out += [(f"scenarios/{p.name}", p.read_text())
            for p in sorted((ROOT / "scenarios").glob("*.cfg"))]
    return out


def digest_line(name: str, text: str, workdir: Path) -> str:
    from riccilab.blowup import (RescalingSchedule, by_curvature_schedule,
                                 rescale_trajectory)
    from riccilab.flows import run_flow
    from riccilab.outputs import load_run, write_outputs
    from riccilab.scenario import build, parse_scenario

    setup = build(parse_scenario(text))
    traj = run_flow(setup)
    run_dir = workdir / name.replace("/", "_")
    summary = write_outputs(traj, run_dir, problem=setup.problem)
    monitors = hashlib.sha256((run_dir / "monitors.csv").read_bytes()).hexdigest()
    snaps = snapshot_digest(traj.snapshots, fields_path(run_dir))
    summary.pop("scenario_hash")
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    line = (f"{name} status={traj.status} steps={traj.n_steps} monitors={monitors} "
            f"snapshots={snaps} "
            f"summary={hashlib.sha256(summary_text.encode()).hexdigest()}")
    if traj.snapshots:
        reloaded = load_run(run_dir)
        times = [s.t for s in reloaded.snapshots]
        try:
            schedule = by_curvature_schedule(reloaded, times)
        except ValueError:      # sup |R| = 0: no factor to take
            schedule = RescalingSchedule([(t, 1.0) for t in times])
        points = json.dumps([dataclasses.asdict(p)
                             for p in rescale_trajectory(reloaded, schedule)])
        line += f" rescale={hashlib.sha256(points.encode()).hexdigest()}"
    return line + f" verdicts={verdicts(run_dir)}"


def fields_path(run_dir: Path) -> Path:
    """Where snapshot_digest saves the widened snapshot fields of a run."""
    return run_dir.with_name(run_dir.name + ".snapshots.npz")


def snapshot_digest(snapshots, path: Path) -> str:
    """The sha256 of each snapshot's t, step, window, field names and shapes
    and vector bytes, as stepped; saves each field, widened to the full grid
    and concatenated over the snapshots, to the .npz `path`."""
    digest, fields = hashlib.sha256(), {}
    for i in range(len(snapshots)):
        layout, vec, t, step = snapshots.stepped(i)
        grid = layout.grid
        spans = [[r.start, r.stop] for r in (range(n)[s] for n, s in
                                             zip((grid.nx, grid.ny), layout.window))]
        names = [[name, list(shape)] for name, shape, _ in layout.fields]
        digest.update(json.dumps([t, step, spans, names]).encode())
        digest.update(vec.astype("<f8", copy=False).tobytes())
        wide, vec = layout.widen(vec)
        for name, shape, offset in wide.fields:
            fields.setdefault(name, []).append(vec[offset:offset + math.prod(shape)])
    np.savez(path, **{name: np.concatenate(parts) for name, parts in fields.items()})
    return digest.hexdigest()


def verdicts(run_dir: Path) -> str:
    summary = json.loads((run_dir / "summary.json").read_text())
    return ",".join(f"{key}:{'pass' if v['pass'] else 'fail'}:{v['checked']}"
                    for key, v in sorted(summary["verdicts"].items()))


def drift(parent: np.ndarray, change: np.ndarray) -> str:
    """The largest drift of `change` from `parent`, as the report prints it."""
    if parent.shape != change.shape:
        return f"shape={list(parent.shape)}->{list(change.shape)}"
    largest = float(np.max(np.abs(change - parent)))
    scale = float(np.max(np.abs(parent)))
    if scale < NEAR_ZERO:
        return f"abs={largest:.3g}"
    return f"rel={largest / scale:.3g} ulp={largest / np.spacing(scale):.3g}"


def columns(run_dir: Path) -> dict:
    """Every monitors.csv column of a run directory and every snapshot field
    snapshot_digest saved for it (none if it saved none), widened, as a
    float64 array, keyed "monitors <column>" and "snapshots <field>"."""
    lines = (run_dir / "monitors.csv").read_text().split()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    out = {f"monitors {name}": np.array([float(row[i]) for row in rows])
           for i, name in enumerate(header)}
    if fields_path(run_dir).exists():
        with np.load(fields_path(run_dir)) as fields:
            out.update((f"snapshots {name}", fields[name]) for name in fields.files)
    return out


def drift_report(name: str, parent_dir: Path, change_dir: Path,
                 parent_line: str, change_line: str) -> list:
    """The report lines of one run, written under both directories, whose
    digest lines were `parent_line` and `change_line`."""
    steps = [json.loads((d / "summary.json").read_text())["n_steps"]
             for d in (parent_dir, change_dir)]
    same = {"steps": steps[0] == steps[1],
            "verdicts": verdicts(parent_dir) == verdicts(change_dir)}
    lines = [f"drift {name} " + " ".join(f"{k}={'equal' if v else 'differ'}"
                                         for k, v in same.items())
             + f" lines={'identical' if parent_line == change_line else 'differ'}"]
    if parent_line != change_line:
        lines.append(f"  parent {parent_line}")
    parent, change = columns(parent_dir), columns(change_dir)
    for key in sorted(parent.keys() | change.keys()):
        if key not in parent or key not in change:
            lines.append(f"  {key} only in {'change' if key in change else 'parent'}")
        else:
            lines.append(f"  {key} {drift(parent[key], change[key])}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="the src/ directory riccilab is imported from")
    parser.add_argument("--against", type=Path,
                        help="the parent's src/ directory: also print each run's drift from it")
    parser.add_argument("--out", type=Path,
                        help="keep the run directories under this directory")
    args = parser.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import riccilab
    if src not in Path(riccilab.__file__).resolve().parents:
        print(f"riccilab imported from {riccilab.__file__}, not from {src}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp) / "change"
        lines = {}
        for name, text in runs():
            lines[name] = digest_line(name, text, out)
            print(lines[name], flush=True)
        if args.against is None:
            return 0
        parent_out = Path(tmp) / "parent"
        child = subprocess.run([sys.executable, __file__, "--src", str(args.against),
                                "--out", str(parent_out)], check=True,
                               stdout=subprocess.PIPE, text=True)
        parent_lines = {line.split(" ", 1)[0]: line for line in child.stdout.splitlines()}
        for name, line in lines.items():
            run = name.replace("/", "_")
            print("\n".join(drift_report(name, parent_out / run, out / run,
                                         parent_lines[name], line)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
