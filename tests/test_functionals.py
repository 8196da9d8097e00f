"""Norms, pairings, lengths, cutoffs, and the verdict reports."""

import math

import numpy as np
import pytest

from riccilab.errors import (DomainTooSmallError, IncompleteTrajectoryError,
                             InvalidCycleError, InvalidSubsolutionError,
                             ProbeOrderError)
from riccilab.functionals import (MonitorRecord, NodePath, ThetaCircle,
                                  CohomologyProbe, cutoff_eta,
                                  cutoff_gradient_margin, cycle_integral,
                                  integrate, l1_monotonicity_report,
                                  l2_monotonicity_report, l2_norm_form,
                                  length_bound_report, loop_length,
                                  lp_norm_scalar, make_probe,
                                  max_principle_report, min_circumference,
                                  sup_norm_form, sup_norm_form_argmax)
from riccilab.geometry import (Grid2D, MetricInvariants, OneFormField,
                               conformal_metric, flat_metric, warped_metric)

PI_ROOT2 = 4.442882938158366   # sqrt(2 pi^2), certified by the quadrature oracle


# ----------------------------------------------------------------- L2 norm
def test_l2_zero(torus64, flat64):
    phi = OneFormField(np.zeros((64, 64)), np.zeros((64, 64)))
    assert l2_norm_form(phi, MetricInvariants(flat64, torus64)) == 0.0


def test_l2_sin_dx(torus64, flat64):
    X, _ = torus64.mesh()
    phi = OneFormField(np.sin(X), np.zeros_like(X))
    geo = MetricInvariants(flat64, torus64)
    assert l2_norm_form(phi, geo) == pytest.approx(PI_ROOT2, abs=1e-6)


def test_l2_homogeneity_and_triangle(torus64):
    rng = np.random.default_rng(5)
    X, T = torus64.mesh()
    g = conformal_metric(torus64, 0.2 * np.sin(X + T))
    a = OneFormField(rng.standard_normal(X.shape), rng.standard_normal(X.shape))
    b = OneFormField(rng.standard_normal(X.shape), rng.standard_normal(X.shape))
    geo = MetricInvariants(g, torus64)
    na = l2_norm_form(a, geo)
    doubled = OneFormField(2 * a.x, 2 * a.theta)
    assert l2_norm_form(doubled, geo) == pytest.approx(2 * na, rel=1e-12)
    summed = OneFormField(a.x + b.x, a.theta + b.theta)
    assert l2_norm_form(summed, geo) <= na + l2_norm_form(b, geo) + 1e-12


# ----------------------------------------------------------------- Lp scalar
def test_lp_constant_on_unit_area():
    grid = Grid2D.torus(16, 16, 1.0, 1.0)
    g = flat_metric(grid)
    u = np.ones((16, 16))
    for p in (1.0, 1.5, 3.0):
        assert lp_norm_scalar(u, MetricInvariants(g, grid), p) == pytest.approx(1.0, rel=1e-12)


def test_lp_mass_one_plus_cos(torus64, flat64):
    X, _ = torus64.mesh()
    u = 1.0 + np.cos(X)
    assert lp_norm_scalar(u, MetricInvariants(flat64, torus64), 1.0) == pytest.approx(
        4 * np.pi ** 2, rel=1e-12)


def test_lp_continuity_in_p():
    grid = Grid2D.torus(64, 64, 1.0, 1.0)   # unit-normalized volume
    g = flat_metric(grid)
    X, _ = grid.mesh()
    u = 1.0 + np.cos(2 * np.pi * X)   # bounded by 2
    v1 = lp_norm_scalar(u, MetricInvariants(g, grid), 1.0)
    v2 = lp_norm_scalar(u, MetricInvariants(g, grid), 1.01)
    assert abs(v2 - v1) / v1 < 0.03


def test_lp_rejects_negative():
    grid = Grid2D.torus(16, 16)
    g = flat_metric(grid)
    u = -0.5 * np.ones((16, 16))
    with pytest.raises(InvalidSubsolutionError):
        lp_norm_scalar(u, MetricInvariants(g, grid), 1.0)
    with pytest.raises(ValueError):
        lp_norm_scalar(np.ones((16, 16)), MetricInvariants(g, grid), 0.5)


# ----------------------------------------------------------------- sup norm
def test_sup_norm_dtheta_warped(neck_grid, neck_metric):
    ones = np.ones((neck_grid.nx, neck_grid.ny))
    phi = OneFormField(np.zeros_like(ones), ones)
    # |dtheta|_g = 1/f pointwise; min f = 1 at the on-grid neck node
    geo = MetricInvariants(neck_metric, neck_grid)
    assert sup_norm_form(phi, geo) == pytest.approx(1.0, rel=1e-12)


def test_sup_norm_flat_and_zero(torus64, flat64):
    ones = np.ones((64, 64))
    geo = MetricInvariants(flat64, torus64)
    assert sup_norm_form(OneFormField(np.zeros_like(ones), ones), geo) == pytest.approx(1.0)
    assert sup_norm_form(OneFormField(0 * ones, 0 * ones), geo) == 0.0


def test_sup_argmax_deterministic(torus64, flat64):
    ones = np.ones((64, 64))
    _, node = sup_norm_form_argmax(OneFormField(0 * ones, ones),
                                   MetricInvariants(flat64, torus64))
    assert node == (0, 0)   # tie resolves to first node in row-major order


# ----------------------------------------------------------------- cycles
def test_pairing_dtheta(torus64, flat64):
    ones = np.ones((64, 64))
    phi = OneFormField(0 * ones, ones)
    assert cycle_integral(phi, ThetaCircle(5), torus64) == pytest.approx(2 * np.pi)


def test_pairing_exact_form_vanishes(torus64):
    X, T = torus64.mesh()
    F = np.sin(X + 2 * T)
    dF = OneFormField(torus64.diff_x(F), torus64.diff_t(F))
    assert abs(cycle_integral(dF, ThetaCircle(12), torus64)) < 1e-10


def test_pairing_mixed_class(torus64):
    X, _ = torus64.mesh()
    phi = OneFormField(np.cos(X), np.ones_like(X))   # dtheta + d(sin x)
    assert cycle_integral(phi, ThetaCircle(40), torus64) == pytest.approx(
        2 * np.pi, abs=1e-10)


def test_node_path_cycle(torus64, flat64):
    # a small coordinate rectangle pairs to zero against any closed form
    path = NodePath((((4, 4)), (10, 4), (10, 9), (4, 9), (4, 4)))
    X, _ = torus64.mesh()
    phi = OneFormField(np.cos(X), np.ones_like(X))
    assert abs(cycle_integral(phi, path, torus64)) < 1e-10
    assert loop_length(path, flat64, torus64) > 0


def test_open_path_rejected():
    with pytest.raises(InvalidCycleError):
        NodePath(((0, 0), (1, 0), (1, 1)))


# ----------------------------------------------------------------- lengths
def test_flat_cylinder_circumference():
    grid = Grid2D.cylinder(65, 32, 10.0)
    x = grid.x
    g = warped_metric(grid, np.ones_like(x), np.ones_like(x))
    L, _ = min_circumference(g, grid)
    assert L == pytest.approx(2 * np.pi, rel=1e-12)


def test_neck_min_circumference(neck_grid, neck_metric):
    L, idx = min_circumference(neck_metric, neck_grid)
    assert L == pytest.approx(2 * np.pi, rel=1e-12)
    assert neck_grid.x[idx] == pytest.approx(0.0, abs=1e-12)


def test_length_scaling_sqrt(neck_grid, neck_metric):
    lam = 7.3
    L0 = loop_length(ThetaCircle(10), neck_metric, neck_grid)
    L1 = loop_length(ThetaCircle(10), neck_metric.rescaled(lam), neck_grid)
    assert L1 == pytest.approx(math.sqrt(lam) * L0, rel=1e-12)


# ----------------------------------------------------------------- probes
def test_probe_construction(neck_grid, neck_metric):
    ones = np.ones((neck_grid.nx, neck_grid.ny))
    phi = OneFormField(0 * ones, ones)
    probe = make_probe("main", phi, ThetaCircle(neck_grid.origin[0]),
                       MetricInvariants(neck_metric, neck_grid))
    assert probe.pairing == pytest.approx(2 * np.pi)
    assert probe.sup0 == pytest.approx(1.0)


def test_probe_rejects_exact_form(torus64, flat64):
    X, T = torus64.mesh()
    F = np.sin(X)
    dF = OneFormField(torus64.diff_x(F), torus64.diff_t(F))
    with pytest.raises(ProbeOrderError):
        make_probe("exact", dF, ThetaCircle(0), MetricInvariants(flat64, torus64))


def test_probe_rejects_nonclosed(torus64, flat64):
    X, T = torus64.mesh()
    phi = OneFormField(np.sin(T), np.zeros_like(T))   # d(phi) != 0
    with pytest.raises(InvalidCycleError):
        make_probe("bad", phi, ThetaCircle(0), MetricInvariants(flat64, torus64))


# ----------------------------------------------------------------- cutoff
def test_cutoff_profile_and_gradient_bound():
    grid = Grid2D.cylinder(513, 16, 80.0)
    x = grid.x
    g = warped_metric(grid, np.ones_like(x), np.ones_like(x))
    r = 8.0   # about 50 node spacings, comfortably above 20
    eta = cutoff_eta(grid, g, r)
    d = np.abs(grid.x)
    inside = d <= r - 1e-9
    outside = d >= 2 * r + 1e-9
    assert np.all(eta[inside, :] == 1.0)
    assert np.all(eta[outside, :] == 0.0)
    assert cutoff_gradient_margin(eta, g, grid, r) <= 1e-8


def test_cutoff_domain_guard():
    grid = Grid2D.cylinder(65, 16, 10.0)
    x = grid.x
    g = warped_metric(grid, np.ones_like(x), np.ones_like(x))
    with pytest.raises(DomainTooSmallError):
        cutoff_eta(grid, g, 4.0)   # 2r = 8 > max distance 5


def test_cutoff_truncation_term_decays():
    # the boundary term (2/((p-1) r^2)) int eta u^p dv of the mass argument
    # vanishes as the cutoff radius grows, for compactly supported u
    grid = Grid2D.cylinder(513, 16, 80.0)
    x = grid.x
    g = warped_metric(grid, np.ones_like(x), np.ones_like(x))
    X, _ = grid.mesh()
    u = np.clip(1 - (X / 2.0) ** 2, 0.0, None) ** 2
    p = 1.01
    terms = []
    for r in (5.0, 10.0, 20.0):
        eta = cutoff_eta(grid, g, r)
        terms.append(2.0 / ((p - 1) * r ** 2)
                     * integrate(eta * u ** p, MetricInvariants(g, grid)))
    assert terms[0] > terms[1] > terms[2]
    # once the support is covered the term decays exactly like 1/r^2
    assert terms[2] / terms[0] == pytest.approx((5.0 / 20.0) ** 2, rel=1e-6)


# ----------------------------------------------------------------- reports
def _rec(t, dt, values, sup_R=0.0, min_R=0.0):
    return MonitorRecord(t=t, dt=dt, step=0, sup_R=sup_R, min_R=min_R,
                         vol=1.0, values=values)


class _Traj:
    def __init__(self, records):
        self.records = records


def test_max_principle_report_flags_violation():
    good = _Traj([_rec(0.0, 0.1, {"main_sup": 1.0}),
                  _rec(0.1, 0.1, {"main_sup": 0.9})])
    assert max_principle_report(good, "main").passed
    bad = _Traj([_rec(0.0, 0.1, {"main_sup": 1.0}),
                 _rec(0.1, 0.1, {"main_sup": 1.1})])
    assert not max_principle_report(bad, "main").passed
    # one record, as when a buffer breach ends a run at record 0: nothing was
    # checked, so the verdict fails rather than passing on nothing
    rep = max_principle_report(_Traj(good.records[:1]), "main")
    assert not rep.passed and rep.checked == 0 and rep.worst_margin == 0.0


def test_l2_report_checks_every_pair():
    # no curvature sign is assumed: an increase while R < 0 fails, and a
    # series with no pair to check fails rather than passing on nothing
    recs = [_rec(0.0, 0.1, {"main_l2": 1.0}, min_R=-1.0),
            _rec(0.1, 0.1, {"main_l2": 0.5}, min_R=-1.0),
            _rec(0.2, 0.1, {"main_l2": 2.0}, min_R=-1.0)]
    rep = l2_monotonicity_report(_Traj(recs), "main")
    assert not rep.passed and rep.checked == 2 and rep.worst_margin == 1.5
    assert l2_monotonicity_report(_Traj(recs[:2]), "main").passed
    rep = l2_monotonicity_report(_Traj(recs[:1]), "main")
    assert not rep.passed and rep.checked == 0


def test_l1_report_requires_columns():
    with pytest.raises(IncompleteTrajectoryError):
        l1_monotonicity_report(_Traj([_rec(0.0, 0.1, {})]))


def test_l1_report_zero_subsolution():
    recs = [_rec(k * 0.1, 0.1, {"u_mass": 0.0, "u_curv_mass": 0.0, "u_max": 0.0})
            for k in range(3)]
    rep = l1_monotonicity_report(_Traj(recs))
    assert rep.passed and rep.worst_margin == 0.0


def test_pairing_sup_length_chain_random(neck_grid):
    # discrete Hoelder on the shortest circle: pairing <= sup|phi| L_alpha,
    # exactly, for random members of the dtheta class on random warped metrics
    rng = np.random.default_rng(17)
    x = neck_grid.x
    X, _ = neck_grid.mesh()
    for _ in range(5):
        f = 1.5 + 0.8 * np.sin(rng.uniform(0.3, 1.0) * x) ** 2
        g = warped_metric(neck_grid, np.ones_like(x), f)
        c = rng.uniform(-2.0, 2.0)
        k = 2 * np.pi / neck_grid.lx
        phi = OneFormField(c * k * np.cos(k * X), np.ones_like(X))
        pairing = cycle_integral(phi, ThetaCircle(neck_grid.origin[0]), neck_grid)
        L, _ = min_circumference(g, neck_grid)
        assert pairing <= sup_norm_form(phi, MetricInvariants(g, neck_grid)) * L * (1 + 1e-12)


def test_length_bound_report_equality_case(neck_grid):
    # static flat cylinder with phi0 = dtheta: the chain holds with equality
    x = neck_grid.x
    g = warped_metric(neck_grid, np.ones_like(x), np.ones_like(x))
    ones = np.ones((neck_grid.nx, neck_grid.ny))
    phi = OneFormField(0 * ones, ones)
    probe = make_probe("main", phi, ThetaCircle(neck_grid.origin[0]),
                       MetricInvariants(g, neck_grid))
    recs = [_rec(0.0, 0.1, {"L_alpha": 2 * np.pi, "main_sup": 1.0}),
            _rec(0.1, 0.1, {"L_alpha": 2 * np.pi, "main_sup": 1.0})]
    rep = length_bound_report(probe, _Traj(recs))
    assert rep.passed
    assert rep.notes["uniform_bound"] == pytest.approx(2 * np.pi)
