"""Seed-0 output digests of every benchmark workload and shipped scenario.

    python3 bench/digests.py --src DIR

Imports riccilab from DIR (the src/ directory of a checkout) and runs each
perfbench workload's seed-0 scenario and each scenarios/*.cfg of this
checkout through parse_scenario -> build -> run_flow -> write_outputs, in a
temporary directory.  Prints one line per run: its name, status, step count,
the sha256 of monitors.csv, of the snapshots (each file's name then its
bytes, in sorted order) and of summary.json without its scenario_hash.  A run
with snapshots also prints rescale=, the sha256 of the JSON of the points
rescale_trajectory measures on the run reloaded with load_run, along the
by-curvature schedule at every snapshot time (unit factors on a flat run,
which that policy rejects): it digests what reloading feeds the rescaling.
Every line ends with verdicts=, each summary.json verdict as name:pass:checked
(or name:fail:checked), sorted by name: a change whose arithmetic moves the
digests can show that every verdict held, on as many checks.  Runs on two
checkouts print the same lines when their outputs agree byte for byte;
scenario_hash is left out because it hashes the serialized spec, which
changes whenever a key is added or retired.  scenarios/cigar.cfg takes about
two minutes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    snaps = hashlib.sha256()
    for path in sorted((run_dir / "snapshots").glob("*")):
        snaps.update(path.name.encode())
        snaps.update(path.read_bytes())
    summary.pop("scenario_hash")
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    line = (f"{name} status={traj.status} steps={traj.n_steps} monitors={monitors} "
            f"snapshots={snaps.hexdigest()} "
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
    verdicts = ",".join(f"{key}:{'pass' if v['pass'] else 'fail'}:{v['checked']}"
                        for key, v in sorted(summary["verdicts"].items()))
    return line + f" verdicts={verdicts}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="the src/ directory riccilab is imported from")
    args = parser.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import riccilab
    if src not in Path(riccilab.__file__).resolve().parents:
        print(f"riccilab imported from {riccilab.__file__}, not from {src}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in runs():
            print(digest_line(name, text, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
