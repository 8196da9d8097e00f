"""Run artifacts: monitors.csv, summary.json, and a binary snapshot store.

The CSV column order is fixed (t, dt, sup_R, min_R, vol, then the monitor
labels in registration order) and floats are written as their shortest
round-trip decimals, so two runs of the same scenario produce byte-identical
files.  A run's snapshots are two files under snapshots/: data.bin, each
vector the run stepped, back to back, as little-endian float64 in its one
StateLayout's order (row-major x-then-theta, phi_x before phi_theta), and
index.json, the grid, metric tag, fields and window (the [start, stop] of
the nodes each 2-D field holds per axis: (nx, 1) columns, a quadrant or the
full grid), then each snapshot's t and step.  summary.json keeps the grid
and the record steps too, so a reloaded run (load_run, its snapshots a
SpilledSnapshots over data.bin's bytes) writes every file back byte for byte."""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path

from .errors import RicciLabError
from .flows import SpilledSnapshots, StateLayout, Trajectory
from .functionals import (MonitorRecord, closedness_report, gauge_report,
                          l1_monotonicity_report, l2_monotonicity_report,
                          length_bound_report, max_principle_report,
                          pairing_invariance_report)
from .geometry import Grid2D

BASE_COLUMNS = ("t", "dt", "sup_R", "min_R", "vol")
INDEX, DATA = "index.json", "data.bin"   # a run's snapshot store, under snapshots/


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
    """Write the run's snapshots, replacing an earlier run's store (removing
    it, with none), then monitors.csv and summary.json, under
    `destination`; returns the summary dict."""
    dest = Path(destination)
    if traj.snapshots:
        write_snapshots(traj, dest / "snapshots")
    else:
        for name in (INDEX, DATA):
            (dest / "snapshots" / name).unlink(missing_ok=True)
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "monitors.csv").write_text(monitors_csv_text(traj))

    verdicts = summarize_trajectory(traj, problem) if traj.records else {}
    summary = {
        "scenario": traj.scenario_name,
        "scenario_hash": traj.scenario_hash,
        "grid": dataclasses.asdict(traj.grid),
        "grid_hash": traj.grid.hash_hex,
        "status": traj.status,
        "t_end": traj.t_end,
        "n_steps": traj.n_steps,
        "n_records": len(traj.records),
        "record_steps": [rec.step for rec in traj.records],
        "monitor_labels": list(traj.monitor_labels),
        "verdicts": verdicts,
        "all_pass": all(v.get("pass", True) for v in verdicts.values()),
    }
    (dest / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True)
                                       + "\n")
    return summary


# ------------------------------------------------------------------- snapshots
def _grid(fields: dict) -> Grid2D:
    """The Grid2D of its dataclasses.asdict form, as the run's files keep it."""
    return Grid2D(**fields | {"origin": tuple(fields["origin"])})


def _spans(grid: Grid2D, window: tuple) -> list:
    """[start, stop] of a window's slice on each axis of `grid`."""
    return [[r.start, r.stop] for r in (range(n)[s] for n, s in zip((grid.nx, grid.ny), window))]


def _window(spans, grid: Grid2D) -> tuple | None:
    """The slices of an index's window, or None unless `spans` is one
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
    """data.bin, every vector of a run's snapshots back to back as it was
    stepped, and index.json."""
    snapshots = traj.snapshots
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    layout, grid = snapshots.layout, traj.grid
    with open(directory / DATA, "wb") as data:
        for i in range(len(snapshots)):
            data.write(snapshots.stepped(i)[1].astype("<f8", copy=False))
    index = {
        "metric_tag": layout.tag,
        "grid": dataclasses.asdict(grid),
        "window": _spans(grid, layout.window),
        "fields": [{"name": name, "dtype": "<f8", "shape": list(shape),
                    "offset": 8 * offset} for name, shape, offset in layout.fields],
        "snapshots": [{"t": t, "step": step} for t, step in snapshots.times],
    }
    (directory / INDEX).write_text(json.dumps(index, indent=1) + "\n")


def read_index(directory) -> tuple[dict, StateLayout]:
    """A snapshot store's index.json and the StateLayout it lists.  Before
    any of data.bin is read, a malformed window or a 2-D field not of the
    window's shape is rejected naming index.json, and a data.bin length not
    the snapshot count times layout.size naming data.bin and both counts."""
    index_path, data_path = Path(directory) / INDEX, Path(directory) / DATA
    index = json.loads(index_path.read_text())
    grid = _grid(index["grid"])
    spans = index["window"]
    window = _window(spans, grid)
    if window is None:
        raise RicciLabError(f"snapshot index {index_path}: window {spans!r} is not one "
                            f"[start, stop] per axis of the {grid.nx}x{grid.ny} grid "
                            "that is the whole axis, a column or a half from its center")
    shape = [stop - start for start, stop in _spans(grid, window)]
    for f in index["fields"]:
        if len(f["shape"]) == 2 and list(f["shape"]) != shape:
            raise RicciLabError(f"snapshot index {index_path}: field {f['name']} has shape "
                                f"{list(f['shape'])}, its window {spans!r} holds {shape}")
    layout = StateLayout(grid, index["metric_tag"],
                         [(f["name"], f["shape"]) for f in index["fields"]], window)
    n, found = len(index["snapshots"]), data_path.stat().st_size / 8
    if found != n * layout.size:
        raise RicciLabError(f"snapshot data {data_path}: its index lists {n} snapshots of "
                            f"{layout.size} float64 elements, {n * layout.size} in all, "
                            f"the file holds {found:.15g}")
    return index, layout


def load_snapshots(directory) -> SpilledSnapshots | list:
    """The store under `directory` as stepped, after read_index, over data.bin's
    bytes in memory of their own (no file stays open, a later rewrite leaves
    them be); no store is [], and snap_*.json files are rejected by name."""
    directory = Path(directory)
    if not (directory / INDEX).exists():
        if any(directory.glob("snap_*.json")):
            raise RicciLabError(f"snapshots {directory}: snap_*.json files, a layout no "
                                f"longer read, and no {INDEX}; re-run the scenario")
        return []
    index, layout = read_index(directory)
    return SpilledSnapshots(layout, io.BytesIO((directory / DATA).read_bytes()),
                            [(snap["t"], snap["step"]) for snap in index["snapshots"]])


def load_run(directory) -> Trajectory:
    """The Trajectory a run directory was written from: summary.json's grid,
    status, t_end, n_steps, scenario, labels and record steps, monitors.csv's
    records and load_snapshots.  A summary.json without the grid or the
    record steps is rejected naming it and the key."""
    directory = Path(directory)
    summary_path = directory / "summary.json"
    if not summary_path.exists():
        raise FileNotFoundError(f"{summary_path} not found")
    summary = json.loads(summary_path.read_text())
    for key in ("grid", "record_steps"):
        if key not in summary:
            raise RicciLabError(f"run summary {summary_path}: no {key!r}, which a reload "
                                "reads; re-run the scenario")
    records = []
    csv_path = directory / "monitors.csv"
    if csv_path.exists():
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        for line, step in zip(lines[1:], summary["record_steps"], strict=True):
            row = dict(zip(header, (float(v) for v in line.split(","))))
            records.append(MonitorRecord(
                t=row.pop("t"), dt=row.pop("dt"), step=step,
                sup_R=row.pop("sup_R"), min_R=row.pop("min_R"),
                vol=row.pop("vol"), values=row,
                grid_hash=summary["grid_hash"]))
    return Trajectory(_grid(summary["grid"]), records,
                      load_snapshots(directory / "snapshots"),
                      summary["status"], summary["t_end"], summary["n_steps"],
                      summary["scenario"], summary["scenario_hash"],
                      summary["monitor_labels"])
