"""Command line entry points: run / verify / rescale / report.

Exit codes: 0 success or all-pass, 1 verification failure, 2 usage or
configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .acceptance import SUITES, run_suites
from .blowup import (DecayMonitorSpec, RescalingSchedule, by_curvature_schedule,
                     decay_monitor, length_scaling_check, nearest_snapshots,
                     rescale_trajectory)
from .errors import RicciLabError, ScenarioError
from .functionals import ThetaCircle
from .flows import run_flow
from .geometry import MetricInvariants
from .outputs import load_run, write_outputs
from .scenario import build, key_value_lines, parse_scenario

USAGE_ERROR = 2
RUNTIME_ERROR = 3


def _cmd_run(args) -> int:
    path = Path(args.scenario)
    if not path.exists():
        print(f"scenario file not found: {path}", file=sys.stderr)
        return USAGE_ERROR
    out_dir = args.out or os.environ.get("RICCILAB_OUT")
    if not out_dir:
        print("no output directory: pass --out or set RICCILAB_OUT",
              file=sys.stderr)
        return USAGE_ERROR
    try:
        spec = parse_scenario(path.read_text())
    except ScenarioError as e:
        for problem in e.problems:
            print(f"scenario error: {problem}", file=sys.stderr)
        return USAGE_ERROR
    setup = build(spec)
    traj = run_flow(setup, collect_snapshots=not args.no_snapshots)
    summary = write_outputs(traj, out_dir, problem=setup.problem)
    print(f"{spec.name}: status {traj.status}, t_end {traj.t_end:g}, "
          f"{traj.n_steps} steps, {len(traj.records)} records -> {out_dir}")
    for key, verdict in summary["verdicts"].items():
        state = "PASS" if verdict.get("pass", True) else "FAIL"
        print(f"  [{state}] {key} (worst margin {verdict.get('worst_margin', 0.0):.3e})")
    return 0


def _cmd_verify(args) -> int:
    names = args.suites or ["all"]
    if names == ["all"]:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(f"unknown suite(s): {', '.join(unknown)}; "
              f"available: {', '.join(SUITES)}", file=sys.stderr)
        return USAGE_ERROR
    return run_suites(names)


# RescalePoint fields the rescale report writes under another name
_REPORT_NAMES = {"lam": "lambda"}
SCHEDULE_KEYS = ("policy", "times", "lambdas", "cycle_x", "sigma", "radii")


def _parse_schedule_file(text: str) -> dict:
    """The `key = value` lines of a rescale schedule.  A line of another form,
    a key outside SCHEDULE_KEYS or given twice, or one of sigma and radii
    without the other raises ValueError naming the line."""
    out, lines, problems = {}, {}, []
    for lineno, key, value in key_value_lines(text, problems):
        if key not in SCHEDULE_KEYS:
            problems.append(f"line {lineno}: unknown key {key!r} "
                            f"(valid keys: {', '.join(SCHEDULE_KEYS)})")
        out[key], lines[key] = value, lineno
    if problems:                # the first, in line order
        raise ValueError(problems[0])
    if ("sigma" in out) != ("radii" in out):
        key, other = ("sigma", "radii") if "sigma" in out else ("radii", "sigma")
        raise ValueError(f"line {lines[key]}: {key} without {other}; the decay "
                         "profile needs both")
    return out


def _cmd_rescale(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        traj = load_run(run_dir)
    except (OSError, RicciLabError) as e:
        print(str(e), file=sys.stderr)
        return USAGE_ERROR
    if not traj.snapshots:
        print(f"no snapshots under {run_dir}; re-run the scenario with snapshots",
              file=sys.stderr)
        return USAGE_ERROR
    sched_path = Path(args.schedule)
    if not sched_path.exists():
        print(f"schedule file not found: {sched_path}", file=sys.stderr)
        return USAGE_ERROR
    grid = traj.grid
    try:
        cfg = _parse_schedule_file(sched_path.read_text())
        policy = cfg.get("policy", "explicit")
        times = [float(v) for v in cfg.get("times", "").split(",") if v.strip()]
        if not times:
            times = [s.t for s in traj.snapshots]
        if policy == "by-curvature":
            schedule = by_curvature_schedule(traj, times)
        else:
            lams = [float(v) for v in cfg.get("lambdas", "").split(",") if v.strip()]
            if policy != "explicit":
                raise ValueError(f"unknown schedule policy {policy!r}")
            schedule = RescalingSchedule(list(zip(times, lams)))
            if len(lams) != len(times):
                raise ValueError("schedule needs matching times and lambdas")
        cycle = dspec = None
        if grid.topology_y == "periodic":
            cycle_key = cfg.get("cycle_x", "auto")
            cycle = ThetaCircle(grid.origin[0] if cycle_key == "auto"
                                else int(cycle_key))
            if not 0 <= cycle.x_index < grid.nx:
                raise ValueError(f"cycle_x {cycle.x_index} outside the grid "
                                 f"(0 to {grid.nx - 1})")
        if "sigma" in cfg:
            dspec = DecayMonitorSpec(float(cfg["sigma"]), tuple(
                float(v) for v in cfg["radii"].split(",") if v.strip()))
    except ValueError as e:
        print(f"schedule error: {e}", file=sys.stderr)
        return USAGE_ERROR

    try:
        points = rescale_trajectory(traj, schedule)
        report = {
            "schedule_policy": policy,
            "points": [{_REPORT_NAMES.get(k, k): v for k, v in asdict(p).items()}
                       for p in points],
        }
        if cycle is not None:
            report["length_scaling"] = length_scaling_check(traj, schedule, cycle)

        lines = ["k,t,radius,profile"]
        if dspec is not None:       # computed before anything is written
            for p, snap in zip(points, nearest_snapshots(traj, schedule)):
                geo = MetricInvariants(snap.metric, grid)
                prof = decay_monitor(geo.scalar, geo, dspec)
                for rho, val in zip(prof["radii"], prof["profile"]):
                    lines.append(f"{p.k},{snap.t!r},{rho!r},{val!r}")

        out_path = Path(args.out) if args.out else run_dir / "rescale_report.json"
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        if dspec is not None:
            (out_path.parent / "decay_profiles.csv").write_text("\n".join(lines) + "\n")
        print(f"rescale report written to {out_path}")
        return 0
    except RicciLabError as e:
        print(f"rescale failed: {e}", file=sys.stderr)
        return USAGE_ERROR


def _cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    summary_path = run_dir / "summary.json"
    if not summary_path.exists():
        print(f"no summary.json under {run_dir}", file=sys.stderr)
        return USAGE_ERROR
    summary = json.loads(summary_path.read_text())
    print(f"scenario : {summary.get('scenario', '?')} "
          f"(hash {summary.get('scenario_hash', '?')})")
    print(f"status   : {summary.get('status', '?')} at t = {summary.get('t_end', 0):g} "
          f"after {summary.get('n_steps', 0)} steps")
    verdicts = summary.get("verdicts", {})
    if not verdicts:
        print("no verdicts recorded")
        return 0
    width = max(len(k) for k in verdicts)
    for key in sorted(verdicts):
        v = verdicts[key]
        state = "PASS" if v.get("pass", True) else "FAIL"
        print(f"  {key.ljust(width)}  {state}  worst margin "
              f"{v.get('worst_margin', 0.0):+.3e}")
    print("all statements PASS" if summary.get("all_pass") else
          "some statements FAILED")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riccilab",
        description="2-D Ricci flow laboratory with coupled heat flows and "
                    "monotonicity monitors")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None,
                       help="output directory (or set RICCILAB_OUT)")
    p_run.add_argument("--no-snapshots", action="store_true")

    p_verify = sub.add_parser("verify", help="run acceptance suites")
    p_verify.add_argument("suites", nargs="*",
                          help=f"suite names or 'all' ({', '.join(SUITES)})")

    p_rescale = sub.add_parser("rescale", help="blow-up rescaling report for a run")
    p_rescale.add_argument("run_dir")
    p_rescale.add_argument("--schedule", required=True)
    p_rescale.add_argument("--out", default=None)

    p_report = sub.add_parser("report", help="print the verdict table for a run")
    p_report.add_argument("run_dir")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0

    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "rescale":
            return _cmd_rescale(args)
        return _cmd_report(args)
    except ScenarioError as e:
        for problem in e.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return USAGE_ERROR
    except RicciLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR
    except Exception as e:    # noqa: BLE001 - map anything unexpected to exit 3
        print(f"unexpected error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
