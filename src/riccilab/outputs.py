"""Run artifacts: monitors.csv, summary.json, and binary field snapshots.

The CSV column order is fixed (t, dt, sup_R, min_R, vol, then the monitor
labels in registration order) and floats are written as their shortest
round-trip decimals, so two runs of the same scenario produce byte-identical
files.  A snapshot is the state vector a run stepped, written as raw
little-endian float64 bytes in its StateLayout's order, beside a JSON header
that lists the layout's fields (row-major x-then-theta, form components
ordered phi_x then phi_theta) and its window, the [start, stop] of the nodes
each 2-D field holds on each axis of the grid: a column run's (nx, 1)
columns, a halved run's quadrant, or the full grid.  A header without a
window is a full-grid one.  Reloading widens each snapshot to the full grid,
bit for bit.
"""

from __future__ import annotations

import json
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


def write_outputs(traj: Trajectory, destination, problem=None) -> dict:
    """Write monitors.csv, summary.json and the snapshots run_flow spilled,
    if it collected any, under `destination`; returns the summary dict.
    Snapshot files an earlier run left under `destination` are removed
    first."""
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
    if traj.snapshots:
        write_snapshots(traj, dest / "snapshots")
    return summary


# ------------------------------------------------------------------- snapshots
def _grid_header(grid: Grid2D) -> dict:
    return {"nx": grid.nx, "ny": grid.ny, "lx": grid.lx, "ly": grid.ly,
            "topology_x": grid.topology_x, "topology_y": grid.topology_y,
            "origin": list(grid.origin)}


def _spans(grid: Grid2D, window: tuple) -> list:
    """[start, stop] of a window's slice on each axis of `grid`."""
    return [[r.start, r.stop] for r in (range(n)[s] for n, s in zip((grid.nx, grid.ny), window))]


def _window(spans, grid: Grid2D) -> tuple | None:
    """The slices of a header's window, or None unless `spans` is one
    [start, stop] of ints per axis and each axis is whole, its first node
    (a column) or the half from its center node on (a halved axis)."""
    if not (isinstance(spans, list) and len(spans) == 2):
        return None
    window = []
    for span, n in zip(spans, (grid.nx, grid.ny)):
        kinds = {(0, n): slice(None), (0, 1): slice(0, 1)}
        if n % 2:
            kinds[(n // 2, n)] = slice(n // 2, None)
        if not (isinstance(span, list) and all(type(v) is int for v in span)
                and tuple(span) in kinds):
            return None
        window.append(kinds[tuple(span)])
    return tuple(window)


def write_snapshots(traj: Trajectory, directory) -> None:
    """One .json header and one .bin per snapshot a run spilled, each vector
    in the layout it was stepped in."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = traj.grid
    for idx in range(len(traj.snapshots)):
        layout, vec, t, step = traj.snapshots.stepped(idx)
        header = {
            "t": t, "step": step, "metric_tag": layout.tag,
            "axis_order": "row-major x-then-theta",
            "component_order": ["phi_x", "phi_theta"],
            "grid": _grid_header(grid),
            "window": _spans(grid, layout.window),
            "fields": [{"name": name, "dtype": "<f8", "shape": list(shape),
                        "offset": 8 * offset} for name, shape, offset in layout.fields],
        }
        stem = directory / f"snap_{idx:05d}"
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        vec.astype("<f8", copy=False).tofile(stem.with_suffix(".bin"))


def read_header(header_path) -> tuple[dict, StateLayout]:
    """A snapshot's JSON header and the StateLayout its fields and window
    list.  Before any of the .bin beside it is read, a malformed window, a
    2-D field whose shape is not the window's, and a .bin whose length is
    not the element count the fields add up to are rejected, naming the
    file."""
    header_path = Path(header_path)
    bin_path = header_path.with_suffix(".bin")
    header = json.loads(header_path.read_text())
    gh = header["grid"]
    grid = Grid2D(gh["nx"], gh["ny"], gh["lx"], gh["ly"],
                  gh["topology_x"], gh["topology_y"], tuple(gh["origin"]))
    spans = header.get("window", [[0, grid.nx], [0, grid.ny]])
    window = _window(spans, grid)
    if window is None:
        raise RicciLabError(f"snapshot {header_path}: window {spans!r} is not one "
                            f"[start, stop] per axis of the {grid.nx}x{grid.ny} grid "
                            "that is the whole axis, a column or a half from its center")
    shape = [stop - start for start, stop in _spans(grid, window)]
    for f in header["fields"]:
        if len(f["shape"]) == 2 and list(f["shape"]) != shape:
            raise RicciLabError(f"snapshot {header_path}: field {f['name']} has shape "
                                f"{list(f['shape'])}, its window {spans!r} holds {shape}")
    layout = StateLayout(grid, header["metric_tag"],
                         [(f["name"], f["shape"]) for f in header["fields"]], window)
    found = bin_path.stat().st_size / 8
    if found != layout.size:
        raise RicciLabError(f"snapshot {bin_path}: its header lists {layout.size} "
                            f"float64 elements, the file holds {found:.15g}")
    return header, layout


def load_snapshots(directory) -> list[FlowState]:
    """The snapshots under `directory`, in file order, each carrying its
    metric alone, widened to the full grid: only the metric parameters, the
    head of each .bin, are read, after read_header has checked the file."""
    states = []
    for header_path in sorted(Path(directory).glob("snap_*.json")):
        header, layout = read_header(header_path)
        head = layout.metric_only
        vec = np.fromfile(header_path.with_suffix(".bin"), dtype="<f8", count=head.size)
        head, vec = head.widen(vec)
        states.append(head.unpack(vec, header["t"], header["step"]))
    return states


def load_run(directory) -> Trajectory:
    """The Trajectory a run directory was written from, as far as its files
    hold it: status, t_end, n_steps, scenario name and hash and the monitor
    labels from summary.json, the records from monitors.csv (each with step
    0, which the CSV does not hold) and the snapshots, each carrying its
    metric alone, from snapshots/.  The grid is the one the snapshot headers
    list, or None for a run written without snapshots."""
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
                grid_hash=summary["grid_hash"]))
    snap_dir = directory / "snapshots"
    snapshots = load_snapshots(snap_dir) if snap_dir.exists() else []
    return Trajectory(snapshots[0].grid if snapshots else None, records, snapshots,
                      summary["status"], summary["t_end"], summary["n_steps"],
                      summary["scenario"], summary["scenario_hash"],
                      summary["monitor_labels"])
