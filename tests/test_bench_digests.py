"""The drift figures of bench/digests.py --against on fixed numbers."""

import json
import sys
from pathlib import Path

import numpy as np

from riccilab.flows import SpilledSnapshots, StateLayout
from riccilab.geometry import Grid2D

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from digests import drift, drift_report, fields_path, snapshot_digest  # noqa: E402


def test_drift_is_relative_to_the_column_scale_in_ulps():
    parent = np.array([4.0, -2.0, 1e-300, 0.0])
    assert drift(parent, parent.copy()) == "rel=0 ulp=0"
    change = parent.copy()
    change[1] = np.nextafter(-2.0, 0.0)          # a quarter ulp of 4.0
    change[2] = 0.0                              # a node near zero moves far in ulps
    assert drift(parent, change) == f"rel={2 ** -52 / 4.0:.3g} ulp=0.25"
    change[0] = np.nextafter(4.0, 5.0) + 2 * np.spacing(4.0)
    assert drift(parent, change) == f"rel={3 * 2 ** -52:.3g} ulp=3"


def test_drift_of_a_near_zero_column_is_absolute():
    parent = np.array([1e-16, -2e-16, 0.0])
    assert drift(parent, np.array([1e-16, 3e-16, 0.0])) == "abs=5e-16"


def test_drift_names_a_shape_change():
    assert drift(np.zeros(3), np.zeros(4)) == "shape=[3]->[4]"


def _run_dir(path, dt):
    path.mkdir()
    (path / "summary.json").write_text(json.dumps(
        {"n_steps": 3, "verdicts": {"l2": {"pass": True, "checked": 2}}}))
    (path / "monitors.csv").write_text(f"t,dt\n0,{dt}\n")
    return path


def test_drift_report_says_whether_the_digest_lines_are_identical(tmp_path):
    parent, change = _run_dir(tmp_path / "parent", 0.5), _run_dir(tmp_path / "change", 0.5)
    line = "run status=completed steps=3 monitors=ab"
    assert drift_report("run", parent, change, line, line) == [
        "drift run steps=equal verdicts=equal lines=identical",
        "  monitors dt rel=0 ulp=0", "  monitors t abs=0"]
    moved = _run_dir(tmp_path / "moved", 0.25)
    assert drift_report("run", parent, moved, line, line + "c") == [
        "drift run steps=equal verdicts=equal lines=differ", f"  parent {line}",
        "  monitors dt rel=0.5 ulp=2.25e+15", "  monitors t abs=0"]


def _snapshot(run_dir, shape, window=(slice(None), slice(None))):
    """One snapshot of an 8x8 torus's metric.u, u[i, j] = i over `shape` in
    the layout of `window`, digested as run_flow would have spilled it."""
    layout = StateLayout(Grid2D.torus(8, 8, 1.0, 1.0), "conformal", [("metric.u", shape)],
                         window)
    snapshots = SpilledSnapshots(layout)
    snapshots.append(np.broadcast_to(np.arange(8.0)[:, None], shape).ravel(), 0.0, 0)
    return snapshot_digest(snapshots, fields_path(run_dir))


def test_drift_report_widens_snapshots_through_their_window(tmp_path):
    # a full-grid snapshot against the same values stepped as a column: the
    # layout moved, the values did not, so the drift is zero and the
    # snapshots= digests, which hash the stepped vectors, differ
    parent, change = _run_dir(tmp_path / "parent", 0.5), _run_dir(tmp_path / "change", 0.5)
    assert _snapshot(parent, (8, 8)) != _snapshot(change, (8, 1), (slice(None), slice(0, 1)))
    assert _snapshot(tmp_path / "again", (8, 8)) == _snapshot(parent, (8, 8))
    line = "run status=completed steps=3 monitors=ab"
    assert drift_report("run", parent, change, line, line + "c")[-1] == \
        "  snapshots metric.u rel=0 ulp=0"
