"""Rescaling laws, schedules, and decay-at-infinity profiles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from riccilab.blowup import (DecayMonitorSpec, RescalingSchedule,
                             by_curvature_schedule, decay_monitor,
                             length_scaling_check, nearest_snapshots,
                             rescale_trajectory)
from riccilab.errors import DomainTooSmallError, IncompleteTrajectoryError
from riccilab.functionals import MonitorRecord, ThetaCircle, min_circumference
from riccilab.geometry import (Grid2D, MetricInvariants, OneFormField,
                               flat_metric, warped_metric)
from riccilab.oracles import cigar_oracle
from riccilab.scenario import FormSpec, make_scenario
from riccilab.flows import SpilledSnapshots, StateLayout, run_flow


@pytest.fixture(scope="module")
def neck_traj():
    spec = make_scenario(name="neck-snap", family="warped-cylinder", nx=128,
                         ny=16, lx=20.0, forms=[FormSpec("main", "dtheta")],
                         t_final=0.1, cadence=2, snapshot_every=1,
                         monitor_energy=False)
    return run_flow(spec)


def test_rescale_identity(neck_traj):
    g = neck_traj.snapshots[0].metric
    same = g.rescaled(1.0)
    assert same.gtt == pytest.approx(g.gtt, rel=1e-15)


def test_rescale_flat_stays_flat():
    grid = Grid2D.torus(32, 32)
    g = flat_metric(grid).rescaled(17.0)
    assert np.max(np.abs(MetricInvariants(g, grid).scalar)) < 1e-14


def test_cigar_curvature_quarters_under_rescale():
    grid = Grid2D.plane(65, 65, 10.0, 10.0)
    ref = cigar_oracle(grid).value
    scaled = ref.metric.rescaled(4.0)
    scalar = MetricInvariants(scaled, grid).scalar
    base = MetricInvariants(ref.metric, grid).scalar
    # the discrete law R(lam g) = R(g)/lam is exact to roundoff
    assert np.max(np.abs(scalar - base / 4.0)) < 1e-12
    # and the peak sits at 4/lam = 1 up to discretization of the profile
    assert np.max(scalar) == pytest.approx(1.0, rel=0.06)


def test_curvature_scaling_machine_precision(neck_traj):
    sched = RescalingSchedule([(0.0, 0.25), (0.05, 4.0), (0.1, 100.0)])
    points = rescale_trajectory(neck_traj, sched)
    for p in points:
        assert p.curvature_scale_residual < 1e-12
        assert p.length_scale_residual < 1e-12


def test_rescale_composition(neck_traj):
    # rescaling then measuring equals measuring then scaling
    lam = 9.0
    g = neck_traj.snapshots[-1].metric
    grid = neck_traj.grid
    L_then = min_circumference(g.rescaled(lam), grid)[0]
    then_L = math.sqrt(lam) * min_circumference(g, grid)[0]
    assert L_then == pytest.approx(then_L, rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        RescalingSchedule([(0.2, 1.0), (0.1, 2.0)])
    with pytest.raises(ValueError):
        RescalingSchedule([(0.1, -1.0)])


def test_by_curvature_schedule(neck_traj):
    sched = by_curvature_schedule(neck_traj, [0.0, 0.05])
    assert all(lam > 0 for _, lam in sched.entries)
    # the neck's dominant curvature magnitude at t=0 is about |R| = 4
    assert sched.entries[0][1] == pytest.approx(4.0, rel=0.1)


def test_length_divergence_report(neck_traj):
    times = np.linspace(0.0, neck_traj.t_end, 8)
    sched = RescalingSchedule([(float(t), float(2.0 ** k))
                               for k, t in enumerate(times)])
    rep = length_scaling_check(neck_traj, sched,
                               ThetaCircle(neck_traj.grid.origin[0]))
    assert rep["sqrt_law_holds"]
    assert rep["rescaled_lengths_diverge"]
    assert rep["min_source_length"] >= 2 * math.pi - 1e-9
    # the printed linear law overshoots by sqrt(lambda)
    last = rep["rows"][-1]
    assert last["linear_law_deviation"] > last["sqrt_law_residual"]


def test_rescale_needs_snapshots(neck_traj):
    empty = type(neck_traj)(neck_traj.grid, neck_traj.records, [], "completed",
                            0.1, 10)
    with pytest.raises(IncompleteTrajectoryError):
        rescale_trajectory(empty, RescalingSchedule([(0.0, 1.0)]))


def test_nearest_snapshots_takes_the_first_of_equals():
    grid = Grid2D.torus(8, 8)
    snapshots = SpilledSnapshots(StateLayout(grid, "conformal", [("metric.u", (8, 8))]))
    for step, t in enumerate((0.0, 1.0, 2.0, 3.0)):
        snapshots.append(np.zeros(64), t, step)
    schedule = RescalingSchedule([(0.5, 1.0), (1.9, 1.0), (2.5, 1.0), (10.0, 1.0)])
    chosen = nearest_snapshots(SimpleNamespace(snapshots=snapshots), schedule)
    assert [s.step for s in chosen] == [0, 2, 2, 3]


def test_by_curvature_schedule_takes_the_first_of_equal_records():
    # 0.25, 0.5 and 0.75 are exact in binary, so both records are 0.25 away
    records = [MonitorRecord(t, 0.25, step, sup_R, -1.0, 1.0)
               for step, (t, sup_R) in enumerate(((0.25, 2.0), (0.75, 3.0)))]
    schedule = by_curvature_schedule(SimpleNamespace(records=records), [0.5])
    assert schedule.entries == [(0.5, 2.0)]


def test_rescale_reads_one_spilled_snapshot_per_entry(many_snapshots_spec, monkeypatch):
    # the nearest-snapshot lookup takes the times from the sequence's
    # `times`, so the only snapshots read are the chosen ones
    traj = run_flow(many_snapshots_spec)
    reads = []
    read = SpilledSnapshots.__getitem__
    monkeypatch.setattr(SpilledSnapshots, "__getitem__",
                        lambda self, i: reads.append(i) or read(self, i))
    schedule = by_curvature_schedule(traj, [r.t for r in traj.records[::4]])
    rescale_trajectory(traj, schedule)
    n = len(traj.snapshots)
    assert n > 90 and len(reads) == len(schedule.entries)


# ------------------------------------------------------------------ decay
def decay_preserved(profile_start: dict, profile_end: dict,
                    rel_tol: float = 1e-6) -> bool:
    """Empirical preservation check: the final outermost shell value does not
    exceed the worst initial shell value (up to tolerance)."""
    peak0 = max(profile_start["profile"]) if profile_start["profile"] else 0.0
    tail1 = profile_end["profile"][-1] if profile_end["profile"] else 0.0
    return tail1 <= peak0 * (1 + rel_tol) + 1e-15


def test_decay_compact_support_zero_tail():
    grid = Grid2D.cylinder(257, 16, 40.0)
    x = grid.x
    g = warped_metric(grid, np.ones_like(x), np.ones_like(x))
    X, _ = grid.mesh()
    bump = np.clip(1 - (X / 2.0) ** 2, 0.0, None) ** 2
    phi = OneFormField(bump, np.zeros_like(bump))
    rep = decay_monitor(phi, MetricInvariants(g, grid), DecayMonitorSpec(1.0, (5.0, 8.0, 12.0)))
    assert rep["profile"] == [0.0, 0.0, 0.0]


def test_decay_cigar_profile():
    # closed form: d ~ asinh(r), R = 4/(1+r^2); d^1 R decreases outward
    grid = Grid2D.plane(129, 129, 16.0, 16.0)
    ref = cigar_oracle(grid).value
    spec = DecayMonitorSpec(1.0, (1.0, 1.5, 2.0, 2.5))
    rep = decay_monitor(ref.scalar_curvature, MetricInvariants(ref.metric, grid), spec)
    assert rep["decreasing_outward"]

    def closed_form(d):
        return d * 4.0 / (1.0 + math.sinh(d) ** 2)

    # each shell sup must sit between the closed-form values at the band edges
    width = 2.0 * max(grid.hx, grid.hy)
    for rho, value in zip(spec.sample_radii, rep["profile"]):
        assert closed_form(rho + width) <= value <= closed_form(rho - width) * 1.01


def test_decay_order_comparison():
    grid = Grid2D.cylinder(257, 16, 40.0)
    x = grid.x
    g = warped_metric(grid, np.ones_like(x), np.ones_like(x))
    X, _ = grid.mesh()
    gauss = np.exp(-(X / 3.0) ** 2)
    phi = OneFormField(gauss, np.zeros_like(gauss))
    radii = (6.0, 9.0, 12.0)
    geo = MetricInvariants(g, grid)
    p1 = decay_monitor(phi, geo, DecayMonitorSpec(1.0, radii))
    p3 = decay_monitor(phi, geo, DecayMonitorSpec(3.0, radii))
    assert p1["decreasing_outward"] and p3["decreasing_outward"]
    assert p3["profile"][-1] < 5e-3     # d^3 |phi| -> 0 on gaussian data
    assert decay_preserved(p1, p1)


def test_decay_preserved_along_neck_run(neck_traj):
    # curvature decay toward the flat ends survives the flow
    grid = neck_traj.grid
    spec = DecayMonitorSpec(1.0, (4.0, 5.5))
    profiles = []
    for snap in (neck_traj.snapshots[0], neck_traj.snapshots[-1]):
        geo = MetricInvariants(snap.metric, grid)
        profiles.append(decay_monitor(geo.scalar, geo, spec))
    assert profiles[0]["decreasing_outward"]
    assert profiles[1]["decreasing_outward"]
    assert decay_preserved(profiles[0], profiles[1])


def test_decay_radius_beyond_buffer():
    grid = Grid2D.cylinder(65, 16, 20.0)
    x = grid.x
    g = warped_metric(grid, np.ones_like(x), np.ones_like(x))
    phi = OneFormField(np.zeros((65, 16)), np.zeros((65, 16)))
    with pytest.raises(DomainTooSmallError):
        decay_monitor(phi, MetricInvariants(g, grid), DecayMonitorSpec(1.0, (9.5,)))


def test_decay_spec_validation():
    with pytest.raises(ValueError):
        DecayMonitorSpec(-1.0, (1.0,))
    with pytest.raises(ValueError):
        DecayMonitorSpec(1.0, (0.0,))
