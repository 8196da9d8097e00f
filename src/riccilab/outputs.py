"""Run artifacts: monitors.csv, summary.json, and binary field snapshots.

The CSV column order is fixed (t, dt, sup_R, min_R, vol, then the monitor
labels in registration order) and floats are written as their shortest
round-trip decimals, so two runs of the same scenario produce byte-identical
files.  A snapshot is the state's flat float64 vector written as raw
little-endian bytes in its StateLayout's order, beside a JSON header that
lists the layout's fields (row-major x-then-theta, form components ordered
phi_x then phi_theta).

Reloading reads each snapshot's metric parameters, the head of its vector,
into memory and maps the other fields (forms, gauge, subsolution) read-only
from its .bin, so a consumer that reads only metrics never pages the rest in.
A loaded run therefore references its files: a snapshot file is never
rewritten in place (the writer unlinks it first, so a live mapping keeps the
old inode), and each live snapshot with mapped fields holds one file
descriptor.  A reload maps no more snapshots than leave FD_RESERVE
descriptors free under the soft RLIMIT_NOFILE and reads the others whole.
"""

from __future__ import annotations

import errno
import json
import os
import resource
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import RicciLabError
from .flows import FlowState, StateLayout, Trajectory
from .functionals import (MonitorRecord, closedness_report, gauge_report,
                          l1_monotonicity_report, l2_monotonicity_report,
                          length_bound_report, max_principle_report,
                          pairing_invariance_report)
from .geometry import Grid2D

BASE_COLUMNS = ("t", "dt", "sup_R", "min_R", "vol")


def _fmt(x: float) -> str:
    return repr(float(x))


def monitors_csv_text(traj: Trajectory) -> str:
    labels = traj.monitor_labels
    lines = [",".join(BASE_COLUMNS + tuple(labels))]
    for rec in traj.records:
        row = [_fmt(rec.t), _fmt(rec.dt), _fmt(rec.sup_R), _fmt(rec.min_R),
               _fmt(rec.vol)]
        row.extend(_fmt(rec.values[label]) for label in labels)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def summarize_trajectory(traj: Trajectory, problem=None) -> dict:
    """Per-statement verdicts with worst margins, for summary.json."""
    verdicts = {}
    form_labels = sorted({k[: -len("_l2")] for r in traj.records[:1]
                          for k in r.values if k.endswith("_l2")})
    for label in form_labels:
        verdicts[f"{label}.l2_monotone"] = l2_monotonicity_report(traj, label).to_json()
        verdicts[f"{label}.sup_monotone"] = max_principle_report(traj, label).to_json()
        verdicts[f"{label}.closedness"] = closedness_report(traj, label).to_json()
        if traj.records and f"{label}_pairing" in traj.records[0].values:
            verdicts[f"{label}.pairing_invariance"] = \
                pairing_invariance_report(traj, label).to_json()
    if traj.records and "u_mass" in traj.records[0].values:
        verdicts["subsolution.mass_inequality"] = l1_monotonicity_report(traj).to_json()
    if traj.records and "gauge_gap" in traj.records[0].values:
        verdicts["gauge.equivalence"] = gauge_report(traj).to_json()
    if problem is not None:
        for label, probe in problem.probes.items():
            if traj.records and "L_alpha" in traj.records[0].values:
                verdicts[f"{label}.length_bound"] = \
                    length_bound_report(probe, traj).to_json()
    return verdicts


def write_outputs(traj: Trajectory, destination, problem=None,
                  snapshots: bool = True) -> dict:
    """Write monitors.csv, summary.json and (optionally) snapshots under
    `destination`; returns the summary dict.  Snapshot files an earlier run
    left under `destination` are removed first."""
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)
    for suffix in ("json", "bin"):
        for stale in (dest / "snapshots").glob(f"snap_*.{suffix}"):
            stale.unlink()
    (dest / "monitors.csv").write_text(monitors_csv_text(traj))

    verdicts = summarize_trajectory(traj, problem) if traj.records else {}
    summary = {
        "scenario": traj.scenario_name,
        "scenario_hash": traj.scenario_hash,
        "grid_hash": traj.grid.hash_hex,
        "status": traj.status,
        "t_end": traj.t_end,
        "n_steps": traj.n_steps,
        "n_records": len(traj.records),
        "monitor_labels": list(traj.monitor_labels),
        "verdicts": verdicts,
        "all_pass": all(v.get("pass", True) for v in verdicts.values()),
    }
    (dest / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True)
                                       + "\n")
    if snapshots and traj.snapshots:
        write_snapshots(traj, dest / "snapshots")
    return summary


# ------------------------------------------------------------------- snapshots
def _grid_header(grid: Grid2D) -> dict:
    return {"nx": grid.nx, "ny": grid.ny, "lx": grid.lx, "ly": grid.ly,
            "topology_x": grid.topology_x, "topology_y": grid.topology_y,
            "origin": list(grid.origin)}


def write_snapshots(traj: Trajectory, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for idx, snap in enumerate(traj.snapshots):
        layout = StateLayout.of(snap)
        header = {
            "t": snap.t, "step": snap.step, "metric_tag": layout.tag,
            "axis_order": "row-major x-then-theta",
            "component_order": ["phi_x", "phi_theta"],
            "grid": _grid_header(traj.grid),
            "fields": [{"name": name, "dtype": "<f8", "shape": list(shape),
                        "offset": 8 * offset} for name, shape, offset in layout.fields],
        }
        stem = directory / f"snap_{idx:05d}"
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        bin_path = stem.with_suffix(".bin")
        bin_path.unlink(missing_ok=True)    # a new inode: a loaded run may map the old one
        layout.pack(snap).astype("<f8", copy=False).tofile(bin_path)


FD_RESERVE = 32     # descriptors a reload leaves free for the opens after it


def _map_budget() -> int:
    """How many snapshot files a reload may map: the soft RLIMIT_NOFILE less
    the descriptors open now and FD_RESERVE; 0 when they cannot be counted."""
    try:
        open_now = len(os.listdir("/dev/fd"))
    except OSError:     # no /dev/fd, or not one descriptor free to list it
        return 0
    return resource.getrlimit(resource.RLIMIT_NOFILE)[0] - open_now - FD_RESERVE


def load_snapshots(directory) -> list[FlowState]:
    """The snapshots under `directory`, in file order.  A .bin file whose
    length is not the element count its header's fields add up to is
    rejected, naming the file and both counts, before any of it is read.

    The metric.* fields, the head of each vector, are read into memory; the
    fields after them are read-only views of one np.memmap of the rest of
    the file.  Each snapshot with mapped fields holds one file descriptor
    while it lives, so a reload maps no more snapshots than leave FD_RESERVE
    descriptors free under the soft RLIMIT_NOFILE, and reads the snapshots
    past that count whole.  A loaded state carries no layout or vector.
    Running out of descriptors anyway raises RicciLabError naming the file,
    the count mapped so far and the soft RLIMIT_NOFILE."""
    directory = Path(directory)
    states, mapped, budget = [], 0, _map_budget()
    bin_path = directory
    try:
        for header_path in sorted(directory.glob("snap_*.json")):
            bin_path = header_path.with_suffix(".bin")
            header = json.loads(header_path.read_text())
            gh = header["grid"]
            grid = Grid2D(gh["nx"], gh["ny"], gh["lx"], gh["ly"],
                          gh["topology_x"], gh["topology_y"], tuple(gh["origin"]))
            layout = StateLayout(grid, header["metric_tag"],
                                 [(f["name"], f["shape"]) for f in header["fields"]])
            found = bin_path.stat().st_size / 8
            if found != layout.size:
                raise RicciLabError(f"snapshot {bin_path}: its header lists {layout.size} "
                                    f"float64 elements, the file holds {found:.15g}")
            # np.memmap rejects an empty range: a bare metric maps nothing
            if layout.head == layout.size or mapped >= budget:
                vec, rest = np.fromfile(bin_path, dtype="<f8"), None
            else:
                vec = np.fromfile(bin_path, dtype="<f8", count=layout.head)
                rest = np.asarray(np.memmap(bin_path, dtype="<f8", mode="r",
                                            offset=8 * layout.head,
                                            shape=(layout.size - layout.head,)))
                mapped += 1
            params, forms, gauge, sub = layout.parts(vec, rest)
            states.append(FlowState(header["t"], grid, layout.metric(params), forms, gauge,
                                    sub, header["step"]))
    except OSError as e:
        if e.errno != errno.EMFILE:
            raise
        soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        raise RicciLabError(
            f"reloading {bin_path}: out of file descriptors after mapping {mapped} "
            f"snapshot files (soft RLIMIT_NOFILE {soft}); each loaded snapshot "
            "with mapped fields keeps one open") from e
    return states


@dataclass
class LoadedRun:
    summary: dict
    records: list
    snapshots: list


def load_run(directory) -> LoadedRun:
    directory = Path(directory)
    summary_path = directory / "summary.json"
    if not summary_path.exists():
        raise FileNotFoundError(f"{summary_path} not found")
    summary = json.loads(summary_path.read_text())
    records = []
    csv_path = directory / "monitors.csv"
    if csv_path.exists():
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            row = dict(zip(header, vals))
            records.append(MonitorRecord(
                t=row.pop("t"), dt=row.pop("dt"), step=0,
                sup_R=row.pop("sup_R"), min_R=row.pop("min_R"),
                vol=row.pop("vol"), values=row,
                grid_hash=summary.get("grid_hash", "")))
    snap_dir = directory / "snapshots"
    snapshots = load_snapshots(snap_dir) if snap_dir.exists() else []
    return LoadedRun(summary, records, snapshots)
