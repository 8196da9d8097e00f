"""Operator stack checks: Christoffels, curvature, d/delta, Laplacians, and the
exact stencil-level identities the heat flows rely on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccilab.errors import DegenerateMetricError
from riccilab.flows import FlowState
from riccilab.geometry import (Grid2D, MetricInvariants, OneFormField,
                               christoffel, codifferential, conformal_metric,
                               curvature, curvature_reduced,
                               exterior_derivative, flat_metric, general_metric,
                               grad_norm_sq, hodge_laplacian, laplace_beltrami,
                               reduced_scalar_curvature, require_conformal_spd,
                               rough_laplacian, warped_metric)
from riccilab.geometry.fields import DET_FLOOR
from riccilab.geometry.operators import _codifferential_two_form, _sym2
from state_vectors import layout_of, pack


def _general(g):
    """The general-tagged copy of a metric: the coordinate Christoffel symbols,
    curvature contraction and general algebra of its components."""
    return general_metric(g.gxx, g.gxt, g.gtt)


# --------------------------------------------------------------- christoffel
def test_christoffel_flat_vanishes(torus64, flat64):
    gam = christoffel(MetricInvariants(flat64, torus64))
    assert np.max(np.abs(gam)) == 0.0


def test_christoffel_conformal_linear_exact():
    # u = 0.1 x: Gamma^x_xx = du/dx = 0.1, exact because the stencil
    # differentiates the stored parameterization
    grid = Grid2D.cylinder(65, 16, 4.0)
    X, _ = grid.mesh()
    g = conformal_metric(grid, 0.1 * X)
    gam = christoffel(MetricInvariants(g, grid))
    assert np.max(np.abs(gam[0, 0, 0] - 0.1)) < 1e-10
    assert np.max(np.abs(gam[1, 0, 1] - 0.1)) < 1e-10
    assert np.max(np.abs(gam[0, 1, 1] + 0.1)) < 1e-10


def test_christoffel_constant_warp():
    grid = Grid2D.cylinder(33, 16, 4.0)
    x = grid.x
    g = warped_metric(grid, np.ones_like(x), 2.0 * np.ones_like(x))
    gam = christoffel(MetricInvariants(g, grid))
    assert np.max(np.abs(gam[0, 1, 1])) == 0.0
    assert np.max(np.abs(gam[1, 0, 1])) == 0.0


def test_christoffel_general_matches_reduced():
    grid = Grid2D.torus(64, 64)
    X, T = grid.mesh()
    g = conformal_metric(grid, 0.2 * np.sin(X) * np.cos(T))
    a = christoffel(MetricInvariants(g, grid))
    b = christoffel(MetricInvariants(_general(g), grid))
    assert np.max(np.abs(a - b)) < 5e-3
    assert a == pytest.approx(b, abs=5e-3)


def test_degenerate_metric_identifies_node():
    gxx = np.ones((16, 16))
    gtt = np.ones((16, 16))
    gtt[3, 7] = 0.0
    g = general_metric(gxx, np.zeros_like(gxx), gtt)
    grid = Grid2D.torus(16, 16)
    with pytest.raises(DegenerateMetricError) as err:
        christoffel(MetricInvariants(g, grid))
    assert err.value.node == (3, 7)


def test_nan_metric_fails_spd_check():
    # NaN compares False with the det floor; the check still names the node
    gxx = np.ones((16, 16))
    gxx[5, 2] = np.nan
    g = general_metric(gxx, np.zeros_like(gxx), np.ones((16, 16)))
    with pytest.raises(DegenerateMetricError) as err:
        g.require_spd(g.det())
    assert err.value.node == (5, 2)


def test_overflowing_det_fails_spd_check():
    # finite components whose det g overflows to +inf: the one degeneracy
    # predicate rejects the node and names it
    gxx = np.ones((16, 16))
    gxx[4, 9] = 1e200
    gtt = gxx.copy()
    g = general_metric(gxx, np.zeros_like(gxx), gtt)
    with np.errstate(over="ignore"), pytest.raises(DegenerateMetricError) as err:
        MetricInvariants(g, Grid2D.torus(16, 16))
    assert err.value.node == (4, 9)
    assert err.value.det == np.inf


def _verdict(check, u):
    """None when check(u) passes, else the (node, det) it raises."""
    try:
        with np.errstate(over="ignore"):
            check(u)
    except DegenerateMetricError as err:
        return err.node, err.det
    return None


def _u_at(value, *more):
    """A 16x16 conformal factor of 0 but `value` at node (3, 5), and each
    (node, value) of `more`."""
    u = np.zeros((16, 16))
    for node, v in (((3, 5), value),) + more:
        u[node] = v
    return u


def test_conformal_spd_check_on_u_is_the_bundles():
    # require_conformal_spd decides on u what the bundle of its metric decides,
    # and names the same node and det g: 1 ulp on each side of a change of the
    # bundle's verdict at the det floor and at det overflow, non-finite nodes,
    # and passing factors whose min u lies inside the check's factor-2 margin
    grid = Grid2D.torus(16, 16)

    def bundle(u):
        MetricInvariants(conformal_metric(grid, u), grid)

    def crossing(lo, hi):
        """Adjacent floats, between lo and hi, on which the bundle's verdict
        on _u_at changes."""
        side = _verdict(bundle, _u_at(lo)) is None
        assert (_verdict(bundle, _u_at(hi)) is None) != side
        while np.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                mid = np.nextafter(lo, hi)
            if (_verdict(bundle, _u_at(mid)) is None) == side:
                lo = mid
            else:
                hi = mid
        return lo, hi

    floor, overflow = crossing(-7.0, -6.8), crossing(177.0, 178.0)
    margin = 0.25 * np.log(1.5 * DET_FLOOR)          # e^{4u} = 1.5 DET_FLOOR
    cases = [_u_at(v) for v in (*floor, *overflow, np.nan, np.inf, -np.inf, margin)]
    cases += [_u_at(np.nan, ((2, 9), -8.0), ((9, 1), 200.0)),
              0.3 * np.sin(np.arange(256.0)).reshape(16, 16)]
    verdicts = [_verdict(bundle, u) for u in cases]
    assert [v is None for v in verdicts] == [False, True, True, False, False, False,
                                             False, True, False, True]
    for u, expected in zip(cases, verdicts):
        got = _verdict(lambda a: require_conformal_spd(grid, a), u)
        if expected is None:
            assert got is None
        else:
            assert got[0] == expected[0]
            assert np.array_equal(got[1], expected[1], equal_nan=True)
    assert verdicts[8][0] == (2, 9)                  # the first degenerate node


@pytest.mark.parametrize("source", ["built", "unpacked", "rescaled"])
def test_warped_metric_holds_row_profiles(neck_grid, neck_metric, source):
    # a warped metric depends on x alone: its components and invariants are
    # read-only broadcasts of (nx, 1) profiles, whichever way it was made
    state = FlowState(0.0, neck_grid, neck_metric)
    layout = layout_of(state)
    g = {"built": lambda: neck_metric,
         "unpacked": lambda: layout.unpack(pack(layout, state)).metric,
         "rescaled": lambda: neck_metric.rescaled(0.3)}[source]()
    geo = MetricInvariants(g, neck_grid)
    arrays = [g.gxx, g.gtt, geo.det, g.det(), geo.sqrt_det, *geo.inv, geo.scalar]
    for a in arrays:
        assert a.shape == (neck_grid.nx, neck_grid.ny)
        assert a.strides[1] == 0 and not a.flags.writeable


@pytest.mark.parametrize("row, h_row, f_row", [
    (7, 1.0, 0.0), (7, 1.0, np.nan), (7, 1e100, 1e100), (0, 0.0, 1.0)])
def test_warped_spd_check_matches_general_copy(row, h_row, f_row):
    # the check scans one theta column of a warped metric; it names the same
    # node and det g as the full scan of its general-tagged copy, the first
    # degenerate row's (i, 0)
    grid = Grid2D.cylinder(16, 8, 4.0)
    h, f = np.ones(16), np.full(16, 2.0)
    h[row], f[row] = h_row, f_row
    f[11] = 0.0                         # a later degenerate row is not the one named
    g = warped_metric(grid, h, f)
    errors = []
    for metric in (g, _general(g)):
        with np.errstate(over="ignore"), pytest.raises(DegenerateMetricError) as err:
            MetricInvariants(metric, grid)
        errors.append(err.value)
    assert errors[0].node == errors[1].node == (row, 0)
    assert np.array_equal(errors[0].det, errors[1].det, equal_nan=True)


# --------------------------------------------------------------- curvature
def test_flat_curvature_zero(torus64, flat64):
    (ricci_xx, _, _), scalar, _ = curvature(MetricInvariants(_general(flat64), torus64))
    assert np.max(np.abs(scalar)) == 0.0
    assert np.max(np.abs(ricci_xx)) == 0.0


def test_cigar_origin_curvature():
    # closed form: R = 4/(1+r^2), equal to 4 at the origin; general-stencil
    # contraction must land within 1% at ~256 nodes per axis
    grid = Grid2D.plane(257, 257, 12.0, 12.0)
    X, T = grid.mesh()
    g = conformal_metric(grid, -0.5 * np.log1p(X ** 2 + T ** 2))
    _, scalar, _ = curvature(MetricInvariants(_general(g), grid))
    o = grid.origin
    assert scalar[o] == pytest.approx(4.0, rel=0.01)
    assert reduced_scalar_curvature(g, grid)[o] == pytest.approx(4.0, rel=0.01)


def test_neck_cap_curvature_sign(neck_grid, neck_metric):
    # where the circle profile is concave (f'' < 0) the curvature is positive
    scalar = MetricInvariants(neck_metric, neck_grid).scalar
    x = neck_grid.x
    concave = (2 - 4 * x ** 2) * np.exp(-x ** 2) < -0.1
    assert np.all(scalar[concave, 0] > 0)


def test_bundle_parts_follow_path(neck_grid, neck_metric):
    # each part is computed once, by the named operator of the metric's tag:
    # the reduced closed forms for a tagged metric, the coordinate Christoffel
    # symbols and contraction for its general-tagged copy
    g, copy = neck_metric, _general(neck_metric)
    reduced_R = reduced_scalar_curvature(g, neck_grid)
    general = MetricInvariants(copy, neck_grid)
    for metric, parts, gamma in (
            (g, curvature_reduced(g, reduced_R),
             christoffel(MetricInvariants(g, neck_grid))),
            (copy, curvature(general), christoffel(general))):
        geo = MetricInvariants(metric, neck_grid)
        assert geo.scalar is geo.scalar and geo.gamma is geo.gamma
        assert np.array_equal(geo.gamma, gamma)
        assert np.array_equal(geo.scalar, parts[1])
        assert all(np.array_equal(a, b) for a, b in zip(geo.ricci, parts[0]))
        assert np.array_equal(geo.endo, parts[2])
    # the inverse block holds the plain componentwise quotients
    grid = Grid2D.torus(16, 16)
    X, T = grid.mesh()
    h = general_metric(1 + 0.2 * np.sin(X), 0.05 * np.cos(T), 1 + 0.2 * np.cos(X + T))
    d = h.det()
    assert all(np.array_equal(a, b)
               for a, b in zip(h.inv(d), (h.gtt / d, -h.gxt / d, h.gxx / d)))


def _einstein_residual(g, grid):
    (ricci_xx, ricci_xt, ricci_tt), scalar, _ = curvature(MetricInvariants(_general(g), grid))
    mask = grid.interior_mask()
    return max(np.max(np.abs(ricci_xx - 0.5 * scalar * g.gxx)[mask]),
               np.max(np.abs(ricci_tt - 0.5 * scalar * g.gtt)[mask]),
               np.max(np.abs(ricci_xt - 0.5 * scalar * g.gxt)[mask]))


def test_einstein_identity_conformal_exact():
    # the discrete contraction respects R_ij = (R/2) g_ij identically for the
    # conformal parameterization: residual sits at roundoff
    grid = Grid2D.plane(65, 65, 12.0, 12.0)
    X, T = grid.mesh()
    g = conformal_metric(grid, -0.5 * np.log1p(X ** 2 + T ** 2))
    assert _einstein_residual(g, grid) < 1e-12


def test_einstein_identity_order_general():
    # on a generic non-diagonal metric the residual is discretization error;
    # it must vanish at order >= 1.9 at interior nodes
    res = []
    for n in (64, 128):
        grid = Grid2D.torus(n, n)
        X, T = grid.mesh()
        gxx = 1.0 + 0.2 * np.sin(X) * np.cos(T)
        gtt = 1.0 + 0.15 * np.cos(X + T)
        gxt = 0.1 * np.sin(X + 2 * T)
        g = general_metric(gxx, gxt, gtt)
        res.append(_einstein_residual(g, grid))
    floor = 1e-13
    assert res[1] < floor or np.log2(res[0] / res[1]) >= 1.9


def test_reduced_crosscheck_order():
    res = []
    for n in (129, 257):
        grid = Grid2D.plane(n, n, 12.0, 12.0)
        X, T = grid.mesh()
        g = conformal_metric(grid, -0.5 * np.log1p(X ** 2 + T ** 2))
        _, scalar, _ = curvature(MetricInvariants(_general(g), grid))
        mask = grid.interior_mask()
        res.append(np.max(np.abs(reduced_scalar_curvature(g, grid) - scalar)[mask]))
    assert np.log2(res[0] / res[1]) >= 1.9


def test_warped_general_vs_reduced(neck_grid, neck_metric):
    _, scalar, _ = curvature(MetricInvariants(_general(neck_metric), neck_grid))
    reduced = reduced_scalar_curvature(neck_metric, neck_grid)
    mask = neck_grid.interior_mask()
    assert np.max(np.abs(reduced - scalar)[mask]) < 0.05


def test_ricci_endomorphism_consistency(neck_grid, neck_metric):
    # endo[a, b] must equal g^{ak} R_kb, not the identity
    (ricci_xx, ricci_xt, _), _, endo = curvature(MetricInvariants(_general(neck_metric),
                                                                  neck_grid))
    ixx, ixt, itt = neck_metric.inv(neck_metric.det())
    assert endo[0, 0] == pytest.approx(ixx * ricci_xx + ixt * ricci_xt,
                                       abs=1e-12)
    assert endo[1, 0] == pytest.approx(ixt * ricci_xx + itt * ricci_xt,
                                       abs=1e-12)
    assert np.max(np.abs(endo[0, 0] - 1.0)) > 0.1   # visibly not delta^j_i


# --------------------------------------------------------------- d and delta
def test_d_constant_scalar(torus64):
    dF = exterior_derivative(np.ones((64, 64)), torus64)
    assert np.max(np.abs(dF.x)) == 0.0 and np.max(np.abs(dF.theta)) == 0.0


def test_d_of_dtheta_closed(torus64):
    phi = OneFormField(np.zeros((64, 64)), np.ones((64, 64)))
    assert np.max(np.abs(exterior_derivative(phi, torus64))) == 0.0


def test_d_sin_second_order():
    errs = []
    for n in (32, 64):
        grid = Grid2D.torus(n, 8)
        X, _ = grid.mesh()
        dF = exterior_derivative(np.sin(X), grid)
        errs.append(np.max(np.abs(dF.x - np.cos(X))))
    assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.1)


def test_dd_zero_machine_precision():
    for grid in (Grid2D.torus(32, 32), Grid2D.cylinder(33, 16, 5.0),
                 Grid2D.plane(17, 17, 3.0, 3.0)):
        rng = np.random.default_rng(3)
        F = rng.standard_normal((grid.nx, grid.ny))
        ddF = exterior_derivative(exterior_derivative(F, grid), grid)
        assert np.max(np.abs(ddF)) < 1e-12


def test_codifferential_dtheta_flat(torus64, flat64):
    phi = OneFormField(np.zeros((64, 64)), np.ones((64, 64)))
    assert np.max(np.abs(codifferential(phi, MetricInvariants(flat64, torus64)))) == 0.0


def test_codifferential_sign_convention(torus64, flat64):
    X, _ = torus64.mesh()
    phi = OneFormField(np.sin(X), np.zeros_like(X))
    delta = codifferential(phi, MetricInvariants(flat64, torus64))
    assert np.max(np.abs(delta + np.cos(X))) < 2e-3   # delta(sin x dx) = -cos x


def test_adjointness_exact_on_periodic():
    grid = Grid2D.torus(128, 64)
    X, T = grid.mesh()
    g = conformal_metric(grid, 0.3 * np.sin(X) * np.cos(T))
    rng = np.random.default_rng(11)
    F = rng.standard_normal((grid.nx, grid.ny))
    phi = OneFormField(rng.standard_normal((grid.nx, grid.ny)),
                       rng.standard_normal((grid.nx, grid.ny)))
    sg, w = g.sqrt_det(g.det()), grid.weights
    dF = exterior_derivative(F, grid)
    ixx, ixt, itt = g.inv(g.det())
    pairing = ixx * dF.x * phi.x + ixt * (dF.x * phi.theta + dF.theta * phi.x) \
        + itt * dF.theta * phi.theta
    lhs = np.sum(pairing * sg * w)
    rhs = np.sum(codifferential(phi, MetricInvariants(g, grid)) * F * sg * w)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


# --------------------------------------------------------------- Laplacians
def test_rough_laplacian_flat_cases(torus64, flat64):
    X, _ = torus64.mesh()
    const = OneFormField(0.7 * np.ones_like(X), -0.2 * np.ones_like(X))
    out = rough_laplacian(const, MetricInvariants(flat64, torus64))
    assert np.max(np.abs(out.x)) == 0.0 and np.max(np.abs(out.theta)) == 0.0

    phi = OneFormField(np.sin(X), np.zeros_like(X))
    out = rough_laplacian(phi, MetricInvariants(flat64, torus64))
    h = torus64.hx
    assert np.max(np.abs(out.x + np.sin(X))) < h ** 2   # 2nd-order error bound


def test_hodge_paths_agree_flat(torus64, flat64):
    X, T = torus64.mesh()
    phi = OneFormField(np.sin(X) * np.cos(T), np.cos(2 * X + T))
    a = hodge_laplacian(phi, MetricInvariants(flat64, torus64), method="dd")
    b = hodge_laplacian(phi, MetricInvariants(flat64, torus64), method="bochner")
    assert np.max(np.abs(a.x - b.x)) < 1e-13
    assert np.max(np.abs(a.theta - b.theta)) < 1e-13


def test_hodge_harmonic_dtheta(torus64, flat64):
    phi = OneFormField(np.zeros((64, 64)), np.ones((64, 64)))
    for method in ("dd", "bochner"):
        out = hodge_laplacian(phi, MetricInvariants(flat64, torus64), method=method)
        assert np.max(np.abs(out.x)) < 1e-14
        assert np.max(np.abs(out.theta)) < 1e-14


def test_hodge_sin_dx_flat(torus64, flat64):
    X, _ = torus64.mesh()
    phi = OneFormField(np.sin(X), np.zeros_like(X))
    out = hodge_laplacian(phi, MetricInvariants(flat64, torus64), method="dd")
    h = torus64.hx
    assert np.max(np.abs(out.x + np.sin(X))) < h ** 2
    assert np.max(np.abs(out.theta)) < 1e-14


def test_hodge_dtheta_warped_nonzero(neck_grid, neck_metric):
    # dtheta is harmonic for every warped metric: delta(dtheta) = 0 and
    # d(dtheta) = 0 hold exactly, so the factorized path returns zero; the
    # Bochner path differs only by discretization error
    phi = OneFormField(np.zeros((neck_grid.nx, neck_grid.ny)),
                       np.ones((neck_grid.nx, neck_grid.ny)))
    dd = hodge_laplacian(phi, MetricInvariants(neck_metric, neck_grid), method="dd")
    assert np.max(np.abs(dd.x)) < 1e-14 and np.max(np.abs(dd.theta)) < 1e-14
    boch = hodge_laplacian(phi, MetricInvariants(neck_metric, neck_grid), method="bochner")
    gap = max(np.max(np.abs(boch.x)), np.max(np.abs(boch.theta)))
    assert 0 < gap < 0.05


def test_laplace_beltrami_matches_flat(torus64, flat64):
    X, _ = torus64.mesh()
    out = laplace_beltrami(np.sin(X), MetricInvariants(flat64, torus64))
    h = torus64.hx
    assert np.max(np.abs(out + np.sin(X))) < h ** 2


# --------------------------------------------------------------- volume
def test_volume_element_values(torus64, flat64, neck_grid, neck_metric):
    assert np.max(np.abs(MetricInvariants(flat64, torus64).sqrt_det - 1.0)) == 0.0
    grid = Grid2D.torus(32, 32)
    X, T = grid.mesh()
    u = 0.1 * np.sin(X + T)
    g = conformal_metric(grid, u)
    assert MetricInvariants(g, grid).sqrt_det == pytest.approx(np.exp(2 * u), rel=1e-12)
    x = neck_grid.x
    f = 2.0 - np.exp(-x ** 2)
    expected = np.outer(np.ones_like(x) * f, np.ones(neck_grid.ny))
    assert MetricInvariants(neck_metric, neck_grid).sqrt_det == pytest.approx(expected,
                                                                          rel=1e-12)


# --------------------------------------------------------------- properties
def _random_general_metric(rng, nx, ny):
    """SPD at every node, with no smoothness: det g = gxx gtt (1 - c^2) > 0."""
    gxx = np.exp(0.5 * rng.standard_normal((nx, ny)))
    gtt = np.exp(0.5 * rng.standard_normal((nx, ny)))
    c = 0.9 * np.tanh(rng.standard_normal((nx, ny)))
    return general_metric(gxx, c * np.sqrt(gxx * gtt), gtt)


def _random_metric(family, rng, grid):
    """A random SPD metric of the family, from random data with no
    smoothness; the warped profiles are positive 1-D functions of x."""
    if family == "conformal":
        return conformal_metric(grid, 0.5 * rng.standard_normal((grid.nx, grid.ny)))
    if family == "warped":
        h, f = np.exp(0.5 * rng.standard_normal((2, grid.nx)))
        return warped_metric(grid, h, f)
    return _random_general_metric(rng, grid.nx, grid.ny)


@settings(max_examples=40)
@given(nx=st.integers(8, 70), ny=st.integers(8, 70), lx=st.floats(0.5, 20.0),
       ly=st.floats(0.5, 20.0), family=st.sampled_from(["general", "conformal", "warped"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_d_squared_and_adjointness_on_random_periodic_grids(nx, ny, lx, ly, family, seed):
    grid = Grid2D.torus(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    g = _random_metric(family, rng, grid)
    F = rng.standard_normal((nx, ny))
    phi = OneFormField(rng.standard_normal((nx, ny)), rng.standard_normal((nx, ny)))

    dF = exterior_derivative(F, grid)
    ddF = exterior_derivative(dF, grid)
    assert np.max(np.abs(ddF)) <= 1e-14 * np.max(np.abs(F)) / (grid.hx * grid.hy)

    geo = MetricInvariants(g, grid)
    assert (g.tag == "general") == (family == "general")
    ixx, ixt, itt = geo.inv
    dv = geo.sqrt_det * grid.weights

    def inner(a, b):
        return ixx * a.x * b.x + ixt * (a.x * b.theta + a.theta * b.x) + itt * a.theta * b.theta

    # integral <phi, dF>_g dv = integral (delta phi) F dv, and on 2-forms
    # integral <d phi, w>_g dv = integral <phi, delta w>_g dv with <a, b>_g =
    # a b / det g for multiples of dx^dtheta, up to rounding
    w = rng.standard_normal((nx, ny))
    d_phi = exterior_derivative(phi, grid)
    for pairing, dual in (
            (inner(phi, dF) * dv, codifferential(phi, geo) * F * dv),
            (d_phi * w / geo.det * dv, inner(phi, _codifferential_two_form(w, geo)) * dv)):
        scale = np.sum(np.abs(pairing)) + np.sum(np.abs(dual))
        assert abs(np.sum(pairing) - np.sum(dual)) <= 1e-14 * scale


@settings(max_examples=40)
@given(nx=st.integers(8, 40), ny=st.integers(8, 40),
       topology=st.sampled_from([Grid2D.torus, Grid2D.cylinder, Grid2D.plane]),
       family=st.sampled_from(["general", "conformal", "warped"]),
       copy=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_laplace_beltrami_is_minus_delta_d_bitwise(nx, ny, topology, family, copy, seed):
    # gauge equivalence rests on Delta_LB F = -delta(dF) to the last bit, on a
    # tagged metric and on its general-tagged copy alike
    grid = topology(nx, ny, 3.0, 5.0)
    rng = np.random.default_rng(seed)
    g = _random_metric(family, rng, grid)
    geo = MetricInvariants(_general(g) if copy else g, grid)
    F = rng.standard_normal((nx, ny))
    dF = exterior_derivative(F, grid)
    lb = laplace_beltrami(F, geo)
    minus_delta_d = -codifferential(dF, geo)
    assert np.array_equal(lb, minus_delta_d)
    assert np.array_equal(np.signbit(lb), np.signbit(minus_delta_d))


@settings(max_examples=40)
@given(nx=st.integers(8, 40), ny=st.integers(8, 40),
       family=st.sampled_from(["conformal", "warped"]),
       offset=st.floats(-6.0, 360.0), lam=st.none() | st.floats(1e-3, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tagged_det_and_inverse_equal_general_formula_bitwise(nx, ny, family, offset,
                                                              lam, seed):
    # an offset above ~177 overflows det g to inf, which the SPD check rejects;
    # det and inv still agree with the general formula there
    grid = Grid2D.cylinder(nx, ny, 4.0)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        if family == "conformal":
            g = conformal_metric(grid, offset + rng.standard_normal((nx, ny)))
        else:
            h, f = np.exp(0.5 * offset + rng.standard_normal((2, nx)))
            g = warped_metric(grid, h, f)
        if lam is not None:
            g = g.rescaled(lam)
        assert not g.gxt.flags.writeable        # metric arrays are never mutated in place
        plain = general_metric(g.gxx.copy(), g.gxt.copy(), g.gtt.copy())
        assert np.array_equal(g.det(), plain.det(), equal_nan=True)
        for tagged, general in zip(g.inv(g.det()), plain.inv(plain.det())):
            assert np.array_equal(tagged, general, equal_nan=True)
            assert np.array_equal(np.signbit(tagged), np.signbit(general))


def _full_grad_norm_sq(phi, geo):
    """g^{km} g^{in} S_ki S_mn, all 16 terms, with S_ki = d_k phi_i - Gamma^l_ki
    phi_l over the bundle's full Christoffel array."""
    grid, gam = geo.grid, christoffel(geo)
    comp = phi.components()
    s = np.empty((2, 2) + phi.x.shape)
    for k in range(2):
        for i in range(2):
            s[k, i] = grid.diff(comp[i], k) - gam[0, k, i] * comp[0] - gam[1, k, i] * comp[1]
    inv = _sym2(*geo.inv)
    out = np.zeros(phi.x.shape)
    for k in range(2):
        for m in range(2):
            for i in range(2):
                for n in range(2):
                    out += inv[k, m] * inv[i, n] * s[k, i] * s[m, n]
    return out


@settings(max_examples=40)
@given(nx=st.integers(8, 40), ny=st.integers(8, 40),
       topology=st.sampled_from([Grid2D.torus, Grid2D.cylinder]),
       family=st.sampled_from(["conformal", "warped"]),
       copy=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_tagged_gradient_energy_and_norm_equal_full_contraction_bitwise(
        nx, ny, topology, family, copy, seed):
    # the closed-form nabla phi and the diagonal contractions leave out only
    # terms that are +-0, so the energy densities keep every bit, sign included;
    # the general-tagged copy sums all 16 terms
    grid = topology(nx, ny, 3.0, 5.0)
    rng = np.random.default_rng(seed)
    g = _random_metric(family, rng, grid)
    geo = MetricInvariants(_general(g) if copy else g, grid)
    phi = OneFormField(rng.standard_normal((nx, ny)), rng.standard_normal((nx, ny)))
    ixx, ixt, itt = geo.inv
    for fast, full in (
            (grad_norm_sq(phi, geo), _full_grad_norm_sq(phi, geo)),
            (phi.norm_sq(geo),
             ixx * phi.x ** 2 + 2.0 * ixt * phi.x * phi.theta + itt * phi.theta ** 2)):
        assert np.array_equal(fast, full)
        assert np.array_equal(np.signbit(fast), np.signbit(full))
