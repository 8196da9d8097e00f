"""The drift figures of bench/digests.py --against on fixed numbers."""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from digests import drift, drift_report  # noqa: E402


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


def _snapshot(run_dir, shape, window=None):
    """One snapshot of an 8x8 torus's metric.u under `run_dir`: u[i, j] = i
    over `shape`, with `window` in its header when given."""
    snaps = run_dir / "snapshots"
    snaps.mkdir()
    header = {"t": 0.0, "step": 0, "metric_tag": "conformal",
              "grid": {"nx": 8, "ny": 8, "lx": 1.0, "ly": 1.0, "topology_x": "periodic",
                       "topology_y": "periodic", "origin": [0, 0]},
              "fields": [{"name": "metric.u", "dtype": "<f8", "shape": list(shape),
                          "offset": 0}]}
    if window is not None:
        header["window"] = window
    (snaps / "snap_00000.json").write_text(json.dumps(header))
    np.broadcast_to(np.arange(8.0)[:, None], shape).astype("<f8").tofile(
        snaps / "snap_00000.bin")


def test_drift_report_widens_snapshots_through_their_window(tmp_path):
    # a full-grid snapshot with no window against the same values kept as a
    # column: the format moved, the values did not, so the drift is zero
    parent, change = _run_dir(tmp_path / "parent", 0.5), _run_dir(tmp_path / "change", 0.5)
    _snapshot(parent, (8, 8))
    _snapshot(change, (8, 1), [[0, 8], [0, 1]])
    line = "run status=completed steps=3 monitors=ab"
    assert drift_report("run", parent, change, line, line + "c")[-1] == \
        "  snapshots metric.u rel=0 ulp=0"
