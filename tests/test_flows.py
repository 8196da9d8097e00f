"""Time integration: CFL control, the coupled step, statuses, and the
conservation/monotonicity behavior of each flow."""

import gc
import math
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import riccilab.flows as flows
from riccilab.errors import DegenerateMetricError
from riccilab.flows import (BLOWUP, BUDGET, BUFFER_BREACH, COMPLETED,
                            FlowProblem, FlowState, IntegratorSpec, _rhs, cfl_dt,
                            flow_step, monitor_record, run_flow)
from riccilab.functionals import (integrate, l2_monotonicity_report,
                                  max_principle_report)
from riccilab.geometry import (Grid2D, MetricInvariants, OneFormField,
                               conformal_metric, flat_metric, general_metric,
                               hodge_laplacian, reduced_scalar_curvature,
                               require_conformal_spd, warped_metric)
from riccilab.oracles import TrigMode, flat_spectral_oracle
from riccilab.outputs import load_run, write_outputs
from riccilab.scenario import FormSpec, ProbeSpec, RunSetup, build, make_scenario
from state_vectors import layout_of, pack


def _state(grid, metric, **kw):
    return FlowState(t=0.0, grid=grid, metric=metric, **kw)


def _step(state, dt, problem):
    """flow_step of a FlowState: the next state, or None on blow-up."""
    layout = layout_of(state)
    vec = flow_step(pack(layout, state), layout, dt, problem)
    return None if vec is None else layout.unpack(vec, state.t + dt, state.step + 1)


def _cfl_bounds(state):
    """The CFL bounds stage 1 of a step from `state` reads."""
    layout = layout_of(state)
    return _rhs(pack(layout, state), layout, FlowProblem(), with_cfl=True)[1]


def _general_copy(setup):
    """The setup with its metric replaced by the general-tagged copy
    general_metric(g.gxx, g.gxt, g.gtt), which takes the general algebra."""
    g = setup.state.metric
    state = replace(setup.state, metric=general_metric(g.gxx, g.gxt, g.gtt))
    return replace(setup, state=state)


# ----------------------------------------------------------------- CFL
def test_cfl_flat_torus_exact(torus64, flat64):
    spec = IntegratorSpec(cfl=0.2)
    h = torus64.hx
    assert cfl_dt(torus64, spec, _cfl_bounds(_state(torus64, flat64))) == \
        pytest.approx(0.2 * h * h, rel=1e-12)


def test_cfl_smaller_on_cigar(cigar_grid, cigar_metric):
    # equal spacing comparison: curved metric with sup R = 4 must step slower
    flat_grid = Grid2D.torus(cigar_grid.nx, cigar_grid.ny,
                             cigar_grid.lx, cigar_grid.ly)
    spec = IntegratorSpec(cfl=0.2)
    dt_flat = cfl_dt(flat_grid, spec, _cfl_bounds(_state(flat_grid, flat_metric(flat_grid))))
    dt_cigar = cfl_dt(cigar_grid, spec, _cfl_bounds(_state(cigar_grid, cigar_metric)))
    assert dt_cigar < dt_flat


def test_cfl_monotone_on_neck_run():
    # at the neck scenario's native resolution the inverse-metric spacing term
    # dominates the rate, and the step size shrinks monotonically as the
    # axial metric contracts over the shoulders
    spec = make_scenario(name="neck-dt", family="warped-cylinder", nx=256, ny=16,
                         lx=20.0, t_final=0.2, cadence=2, monitor_energy=False)
    traj = run_flow(spec, collect_snapshots=False)
    dts = [r.dt for r in traj.records[1:-1]]   # final record repeats a clipped dt
    assert all(b <= a + 1e-15 for a, b in zip(dts, dts[1:]))
    assert dts[-1] < dts[0]


def test_integrator_spec_validation():
    assert IntegratorSpec(cfl=0.7).validate()
    assert IntegratorSpec(scheme="euler").validate()
    assert IntegratorSpec(max_steps=-1).validate()
    assert IntegratorSpec(snapshot_every=-1).validate()
    assert not IntegratorSpec(max_steps=0, snapshot_every=0).validate()
    assert not IntegratorSpec().validate()


def test_stage_one_sup_R_is_reduced_curvature_bitwise(cigar_grid, cigar_metric,
                                                      neck_grid, neck_metric):
    # the CFL reads sup |R| off stage 1: 2 max|du/dt| on the conformal path and
    # 2 max|K| on the warped path, both exactly max|reduced_scalar_curvature|;
    # its inverse-metric bounds are the bundle's, read off e^{-2u} on the
    # conformal path (to rounding) and off the bundle's inverse on the warped
    for grid, g in ((cigar_grid, cigar_metric), (neck_grid, neck_metric)):
        sup_xx, cross, sup_tt, sup_R = _cfl_bounds(_state(grid, g))
        assert sup_R == float(np.max(np.abs(reduced_scalar_curvature(g, grid))))
        ixx, _, itt = MetricInvariants(g, grid).inv
        assert cross == 0.0
        assert sup_xx == pytest.approx(np.max(ixx), rel=1e-15, abs=0.0)
        assert sup_tt == pytest.approx(np.max(itt), rel=1e-15, abs=0.0)
        if g.tag == "warped":
            assert (sup_xx, sup_tt) == (np.max(ixx), np.max(itt))


# ----------------------------------------------------------------- state vector
def _coupled_states(grid):
    """One state per metric tag, each carrying a form; the conformal one also a
    gauge potential and a subsolution."""
    X, T = grid.mesh()
    form = {"main": OneFormField(np.sin(X) * np.cos(T), 0.5 + np.cos(X))}
    u = 0.1 * np.sin(X) * np.cos(T)
    return [
        _state(grid, conformal_metric(grid, u), forms=form,
               gauge=0.2 * np.cos(T), subsolution=1.0 + 0.3 * X),
        _state(grid, warped_metric(grid, 1.0 + 0.01 * grid.x, 2.0 - np.exp(-grid.x ** 2)),
               forms=form),
        _state(grid, general_metric(np.exp(2 * u), 0.1 * np.sin(T), 1.0 + 0.2 * np.cos(X)),
               forms=form),
    ]


def _fields(st):
    g = st.metric
    arrays = [g.gxx, g.gxt, g.gtt, *(a for a in (g.u, g.h, g.f) if a is not None)]
    for phi in st.forms.values():
        arrays += [phi.x, phi.theta]
    arrays += [s for s in (st.gauge, st.subsolution) if s is not None]
    return arrays


def test_unpack_of_pack_is_the_state_bitwise():
    for st in _coupled_states(Grid2D.cylinder(33, 16, 6.0)):
        layout = layout_of(st)
        vec = pack(layout, st)
        assert vec.dtype == np.float64 and vec.shape == (layout.size,)
        back = layout.unpack(vec, st.t, st.step)
        assert back.metric.tag == st.metric.tag
        for a, b in zip(_fields(st), _fields(back), strict=True):
            assert np.array_equal(a, b)
        # a state the layout unpacked packs to its own vector, with no copy
        assert layout_of(back) is layout and pack(layout, back) is vec
        # its gauge and subsolution, where tracked, are plain arrays viewing it
        scalars = [a for a in (back.gauge, back.subsolution) if a is not None]
        assert len(scalars) == (2 if st.metric.tag == "conformal" else 0)
        assert all(type(a) is np.ndarray and np.shares_memory(a, vec) for a in scalars)


def test_frozen_nodes_match_per_array_rule():
    # zeroing the vector's frozen nodes zeroes exactly what the per-array rule
    # did: the boundary mask on 2-D fields, both ends of 1-D warped profiles
    for grid in (Grid2D.plane(257, 257, 16.0, 16.0), Grid2D.cylinder(512, 64, 20.0),
                 Grid2D.torus(32, 32)):
        for st in _coupled_states(grid):
            layout = layout_of(st)
            k = np.ones(layout.size)
            if layout.frozen.size:
                k[layout.frozen] = 0.0
            expected = []
            for _, shape, _ in layout.fields:
                ref = np.ones(shape)
                if grid.boundary_mask.any():
                    if ref.ndim == 2:
                        ref[grid.boundary_mask] = 0.0
                    else:
                        ref[0] = 0.0
                        ref[-1] = 0.0
                expected.append(ref.ravel())
            assert np.array_equal(k, np.concatenate(expected))
            assert (layout.frozen.size == 0) == (grid.topology_x == "periodic")


# ----------------------------------------------------------------- Ricci flow
def test_flat_torus_static():
    spec = make_scenario(name="flat", family="flat-torus", nx=32, ny=32,
                         t_final=0.2, cadence=5)
    traj = run_flow(spec)
    assert traj.status == COMPLETED
    final = traj.snapshots[-1].metric
    assert np.max(np.abs(final.gxx - 1.0)) == 0.0
    assert np.max(np.abs(final.gtt - 1.0)) == 0.0


def test_conformal_torus_gauss_bonnet():
    spec = make_scenario(name="gb", family="conformal-torus", nx=64, ny=64,
                         metric_amplitude=0.1, t_final=0.2, cadence=5)
    traj = run_flow(spec)
    for snap in traj.snapshots:
        geo = MetricInvariants(snap.metric, snap.grid)
        total = integrate(geo.scalar, geo)
        assert abs(total) < 1e-6


def test_cigar_curvature_peak_short_run():
    spec = make_scenario(name="cigar-short", family="conformal-plane",
                         nx=257, ny=257, lx=16.0, ly=16.0, cfl=0.5,
                         t_final=0.005, cadence=50, buffer_threshold=1.0,
                         monitor_energy=False)
    traj = run_flow(spec, collect_snapshots=False)
    assert traj.status == COMPLETED
    for rec in traj.records:
        assert 3.92 <= rec.sup_R <= 4.08


def test_general_path_volume_response():
    # d/dt int dv = -int R dv; on the torus the right side vanishes by
    # topology.  The general-tagged copy of a conformal torus evolves every
    # component by -2 Ric, and its discrete volume holds to rounding at both
    # sizes, so there is no drift to take an order of
    for nx in (32, 64):
        spec = make_scenario(name=f"vol-{nx}", family="conformal-torus",
                             nx=nx, ny=nx, metric_amplitude=0.2,
                             t_final=0.05, cadence=1, monitor_energy=False)
        traj = run_flow(_general_copy(build(spec)), collect_snapshots=False)
        vols = np.array([r.vol for r in traj.records])
        assert traj.status == COMPLETED and len(vols) > 2
        assert np.max(np.abs(vols - vols[0])) / vols[0] <= 1e-12


def test_reduced_and_general_paths_agree():
    # the reduced conformal flow and the -2 Ric flow of its general-tagged copy
    # differ by discretization error alone
    setup = build(make_scenario(name="paths", family="conformal-torus", nx=64, ny=64,
                                metric_amplitude=0.1, t_final=0.05, cadence=10,
                                monitor_energy=False))
    reduced, general = (run_flow(s).snapshots[-1].metric
                        for s in (setup, _general_copy(setup)))
    assert (reduced.tag, general.tag) == ("conformal", "general")
    gap = np.max(np.abs(reduced.gxx - general.gxx))
    assert 0 < gap < 1e-4


# ----------------------------------------------------------------- form heat flow
def test_harmonic_form_fixed_on_flat():
    spec = make_scenario(name="dtheta-flat", family="flat-torus", nx=32, ny=32,
                         forms=[FormSpec("main", "dtheta")], t_final=0.3,
                         cadence=10, monitor_energy=False)
    traj = run_flow(spec)
    phi = traj.snapshots[-1].forms["main"]
    assert np.max(np.abs(phi.theta - 1.0)) == 0.0
    assert np.max(np.abs(phi.x)) == 0.0


def test_form_decay_matches_spectral_oracle():
    nx, t_final = 64, 0.5
    spec = make_scenario(name="decay", family="flat-torus", nx=nx, ny=nx,
                         forms=[FormSpec("main", "sinx_dx")], t_final=t_final,
                         cadence=20, monitor_energy=False)
    traj = run_flow(spec)
    phi = traj.snapshots[-1].forms["main"]
    grid = traj.grid
    oracle = flat_spectral_oracle([TrigMode("form_x", "sin", 1, 0)], t_final, grid)
    # continuum comparison is limited by the stencil eigenvalue gap ~h^2/3
    assert np.max(np.abs(phi.x - oracle.value.x)) < 2e-3
    # the discrete mode decays with the stencil eigenvalue, up to the rk2
    # time-integration error ~ T lam^3 dt^2 / 6
    h = grid.hx
    lam = (math.sin(h) / h) ** 2
    X, _ = grid.mesh()
    assert np.max(np.abs(phi.x - math.exp(-lam * t_final) * np.sin(X))) < 1e-6


def test_neck_form_sup_monotone_and_pairing_invariant():
    spec = make_scenario(name="neck-form", family="warped-cylinder", nx=128,
                         ny=16, lx=20.0, forms=[FormSpec("main", "dtheta")],
                         probes=[ProbeSpec("loop", "main")],
                         t_final=0.1, cadence=1, monitor_energy=False)
    traj = run_flow(spec, collect_snapshots=False)
    sups = [r.values["main_sup"] for r in traj.records]
    tol = 1e-8 * sups[0]
    assert all(b <= a + tol for a, b in zip(sups, sups[1:]))
    # the cohomology pairing is a flow invariant of the heat-flowed class
    pairings = [r.values["main_pairing"] for r in traj.records]
    assert max(abs(p - pairings[0]) for p in pairings) <= 1e-6 * abs(pairings[0])


def test_closedness_preserved():
    spec = make_scenario(name="closed", family="conformal-torus", nx=64, ny=64,
                         metric_amplitude=0.05,
                         forms=[FormSpec("main", "dtheta_dsinx", 0.3)],
                         t_final=0.2, cadence=5, monitor_energy=False)
    traj = run_flow(spec, collect_snapshots=False)
    res = [r.values["main_closedness"] for r in traj.records]
    assert res[0] == 0.0
    assert max(res) <= 1e-9


def test_operator_swap_vanishes_under_refinement(monkeypatch):
    # driving the form by the Bochner operator in place of the factorized one
    # changes it only by discretization error, vanishing at order >= 1.9
    import riccilab.flows as flows

    def final_form(nx, op):
        spec = make_scenario(name=f"swap-{op}-{nx}", family="warped-cylinder",
                             nx=nx, ny=max(8, (nx - 1) // 4), lx=20.0,
                             metric_width=2.5, forms=[FormSpec("main", "dtheta")],
                             dt_cap=2e-4, t_final=0.02, cadence=100,
                             monitor_energy=False)
        with monkeypatch.context() as m:
            m.setattr(flows, "hodge_laplacian",
                      lambda phi, geo: hodge_laplacian(phi, geo, method=op))
            return run_flow(spec).snapshots[-1].forms["main"]

    gaps = []
    for nx in (65, 129):
        a, b = final_form(nx, "dd"), final_form(nx, "bochner")
        gaps.append(max(np.max(np.abs(a.x - b.x)),
                        np.max(np.abs(a.theta - b.theta))))
    assert math.log2(gaps[0] / gaps[1]) >= 1.9


# ----------------------------------------------------------------- gauge flow
def test_gauge_zero_source_stays_zero():
    spec = make_scenario(name="gauge0", family="flat-torus", nx=32, ny=32,
                         forms=[FormSpec("main", "dtheta")], gauge_form="main",
                         t_final=0.2, cadence=10, monitor_energy=False)
    traj = run_flow(spec)
    assert np.max(np.abs(traj.snapshots[-1].gauge)) == 0.0


def test_gauge_representation_exact_static():
    spec = make_scenario(name="gauge-s", family="flat-torus", nx=64, ny=64,
                         forms=[FormSpec("main", "sinx_dx")], gauge_form="main",
                         t_final=0.3, cadence=10, monitor_energy=False)
    traj = run_flow(spec, collect_snapshots=False)
    assert max(r.values["gauge_gap"] for r in traj.records) < 1e-6


def test_gauge_representation_evolving():
    spec = make_scenario(name="gauge-e", family="conformal-torus", nx=64, ny=64,
                         metric_amplitude=0.05,
                         forms=[FormSpec("main", "dtheta_dsinx", 0.3)],
                         gauge_form="main", t_final=0.3, cadence=10,
                         monitor_energy=False)
    traj = run_flow(spec, collect_snapshots=False)
    assert max(r.values["gauge_gap"] for r in traj.records) < 1e-4


# ----------------------------------------------------------------- scalar flow
def test_scalar_constant_preserved():
    grid = Grid2D.torus(32, 32)
    st = _state(grid, flat_metric(grid),
                subsolution=2.5 * np.ones((32, 32)))
    out = _step(st, 1e-3, FlowProblem())
    assert np.max(np.abs(out.subsolution - 2.5)) == 0.0


def test_scalar_decay_spectral():
    spec = make_scenario(name="sub", family="flat-torus", nx=64, ny=64,
                         subsolution="one-plus-cos", t_final=0.5, cadence=10,
                         monitor_energy=False)
    traj = run_flow(spec)
    u = traj.snapshots[-1].subsolution
    grid = traj.grid
    X, _ = grid.mesh()
    h = grid.hx
    lam = (math.sin(h) / h) ** 2
    assert np.max(np.abs(u - (1.0 + math.exp(-lam * 0.5) * np.cos(X)))) < 1e-6
    oracle = 1.0 + math.exp(-0.5) * np.cos(X)
    assert np.max(np.abs(u - oracle)) < 2e-3


def test_scalar_bump_stays_nonnegative():
    spec = make_scenario(name="bump", family="warped-cylinder", nx=128, ny=16,
                         lx=20.0, subsolution="bump", sub_width=2.0,
                         t_final=0.2, cadence=1, monitor_energy=False)
    traj = run_flow(spec, collect_snapshots=False)
    assert min(r.values["u_min"] for r in traj.records) >= -1e-10


def test_scalar_sink_strict_subsolution():
    spec = make_scenario(name="sink", family="flat-torus", nx=32, ny=32,
                         subsolution="one-plus-cos", sink=0.5, t_final=0.3,
                         cadence=1, monitor_energy=False)
    traj = run_flow(spec, collect_snapshots=False)
    masses = [r.values["u_mass"] for r in traj.records]
    assert all(b < a for a, b in zip(masses, masses[1:]))


# ----------------------------------------------------------------- statuses
def test_zero_step_budget():
    spec = make_scenario(name="budget", family="flat-torus", nx=32, ny=32,
                         max_steps=0, t_final=1.0)
    traj = run_flow(spec)
    assert traj.status == BUDGET
    assert traj.records == [] and traj.snapshots == []


def test_budget_exhausted_midway():
    spec = make_scenario(name="budget2", family="flat-torus", nx=32, ny=32,
                         forms=[FormSpec("main", "sinx_dx")],
                         max_steps=7, t_final=1.0, cadence=1)
    traj = run_flow(spec)
    assert traj.status == BUDGET
    assert traj.n_steps == 7


def test_dt_underflow_reports_blowup():
    # a thin cylinder on a fine grid: positive-definite everywhere, but the
    # parabolic rate pushes dt under 1e-12; the run must terminate with the
    # blow-up status and keep the last valid state
    grid = Grid2D.cylinder(1024, 8, 0.5)
    prof = 2e-3 * np.ones(1024)
    setup = RunSetup("thin", "x" * 16, _state(grid, warped_metric(grid, prof, prof)),
                     FlowProblem(), IntegratorSpec(t_final=1.0))
    traj = run_flow(setup)
    assert traj.status == BLOWUP
    assert len(traj.records) == 1   # the initial (last valid) state is recorded


def test_problem_fields_are_keyword_only():
    # the grid is the state's: a positional argument binds to no field
    with pytest.raises(TypeError):
        FlowProblem(Grid2D.torus(16, 16))


def test_circumference_monitored_on_cylinder_grids_alone():
    # the minimal theta-circle L_alpha is recorded on every cylinder grid, a
    # hand-built setup's included, and on no other grid
    def run(grid, metric):
        setup = RunSetup("c", "c" * 16, _state(grid, metric), FlowProblem(),
                         IntegratorSpec(max_steps=2, t_final=1.0, cadence=1))
        return run_flow(setup, collect_snapshots=False)

    cylinder = Grid2D.cylinder(32, 8, 20.0)
    f = 2.0 - np.exp(-cylinder.x ** 2)
    traj = run(cylinder, warped_metric(cylinder, np.ones(32), f))
    assert len(traj.records) == 3 and "L_alpha" in traj.monitor_labels
    assert traj.records[0].values["L_alpha"] == pytest.approx(2 * np.pi * f.min(), rel=1e-12)
    torus = Grid2D.torus(16, 16)
    traj = run(torus, flat_metric(torus))
    assert len(traj.records) == 3 and "L_alpha" not in traj.monitor_labels


def test_flow_step_detects_nonfinite():
    grid = Grid2D.torus(16, 16)
    X, _ = grid.mesh()
    st = _state(grid, flat_metric(grid),
                forms={"main": OneFormField(np.sin(X), np.zeros_like(X))})
    problem = FlowProblem()
    with np.errstate(over="ignore", invalid="ignore"):
        assert _step(st, 1e308, problem) is None


def test_stage_metric_failure_ends_as_blowup():
    # at dt = 5 the second RK stage's metric fails its SPD check: the step
    # reports blow-up instead of raising, and so does a run that steps that far
    grid = Grid2D.torus(32, 32)
    X, T = grid.mesh()
    g = general_metric(1 + 0.3 * np.sin(X), 0.1 * np.cos(T), 1 + 0.3 * np.cos(X + T))
    st = _state(grid, g, forms={"main": OneFormField(np.sin(X), np.zeros_like(X))})
    assert _step(st, 5.0, FlowProblem()) is None
    setup = RunSetup("degenerate", "d" * 16, st, FlowProblem(),
                     IntegratorSpec(cfl=200.0, t_final=50.0))
    traj = run_flow(setup)
    assert traj.status == BLOWUP
    assert traj.n_steps == 0 and len(traj.records) == 1


def test_degenerate_initial_metric_ends_as_blowup():
    # a hand-built setup skips build's check: the run ends with the blow-up
    # status before any step or record, like an empty step budget
    grid = Grid2D.torus(16, 16)
    u = np.full((16, 16), -7.0)                      # det g = e^-28 < 1e-12
    setup = RunSetup("degenerate", "d" * 16, _state(grid, conformal_metric(grid, u)),
                     FlowProblem(), IntegratorSpec(t_final=1.0))
    traj = run_flow(setup)
    assert traj.status == BLOWUP
    assert traj.n_steps == 0 and traj.t_end == 0.0
    assert traj.records == [] and traj.snapshots == []


def _counted_christoffel(monkeypatch) -> list:
    """The bundles christoffel is called on, in call order."""
    import riccilab.geometry.operators as ops
    bundles = []
    christoffel = ops.christoffel

    def counted(geo, *args, **kwargs):
        bundles.append(geo)
        return christoffel(geo, *args, **kwargs)

    monkeypatch.setattr(ops, "christoffel", counted)
    return bundles


def _coordinate_christoffel(g, grid):
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) of the raw
    components, with numpy's inverse."""
    comp = np.array([[g.gxx, g.gxt], [g.gxt, g.gtt]])
    inv = np.moveaxis(np.linalg.inv(np.moveaxis(comp, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    dg = np.array([[[grid.diff(comp[i, j], l) for j in range(2)] for i in range(2)]
                   for l in range(2)])                   # dg[l, i, j] = d_l g_ij
    lowered = dg + dg.transpose(1, 0, 2, 3, 4) - dg.transpose(1, 2, 0, 3, 4)
    return 0.5 * np.einsum("kl...,ijl...->kij...", inv, lowered)


def test_general_curvature_reads_the_bundles_christoffels(monkeypatch):
    # one Christoffel array per bundle that reads curvature or the gradient
    # energy: the initial state's (record 0 and stage 1), stage 2's and the
    # new state's (its record)
    bundles = _counted_christoffel(monkeypatch)
    grid = Grid2D.torus(16, 16)
    X, T = grid.mesh()
    g = general_metric(1 + 0.3 * np.sin(X), 0.1 * np.cos(T), 1 + 0.3 * np.cos(X + T))
    st = _state(grid, g, forms={"main": OneFormField(np.sin(X), np.zeros_like(X))})
    setup = RunSetup("general", "g" * 16, st, FlowProblem(),
                     IntegratorSpec(max_steps=1, t_final=1.0))
    traj = run_flow(setup)
    assert traj.n_steps == 1 and len(traj.records) == 2
    assert len(bundles) == len({id(geo) for geo in bundles}) == 3
    assert all(geo.metric.tag == "general" for geo in bundles)


def test_general_path_reads_coordinate_christoffels_once_per_bundle(monkeypatch):
    # the general-tagged copy of a conformal metric uses the coordinate
    # Christoffel symbols for its curvature and its gradient energy alike, and
    # builds them once per bundle: the initial state's, stage 2's and the new
    # state's
    setup = _general_copy(build(make_scenario(
        name="general-torus", family="conformal-torus", nx=16, ny=16,
        forms=[FormSpec("main", "sinx_dx")], max_steps=1, t_final=1.0, cadence=1,
        monitor_energy=True)))
    bundles = _counted_christoffel(monkeypatch)
    traj = run_flow(setup)
    assert traj.n_steps == 1 and len(traj.records) == 2
    assert len(bundles) == len({id(geo) for geo in bundles}) == 3
    for geo in bundles:
        assert geo.metric.tag == "general"
        expected = _coordinate_christoffel(geo.metric, geo.grid)
        assert np.max(np.abs(geo.gamma - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("tag", ["warped", "general"])
def test_christoffel_builds_on_the_evolving_neck(monkeypatch, tag):
    # the warped metric as built never builds the Gamma array; its
    # general-tagged copy builds it once per bundle: each state's (its record,
    # its Ricci rate and its gradient energy) and each step's stage 2
    setup = build(make_scenario(name="neck", family="warped-cylinder", nx=32, ny=8,
                                lx=20.0, forms=[FormSpec("main", "dtheta")], max_steps=3,
                                t_final=1.0, cadence=1, monitor_energy=True))
    if tag == "general":
        setup = _general_copy(setup)
    bundles = _counted_christoffel(monkeypatch)
    traj = run_flow(setup)
    assert traj.n_steps == 3 and len(traj.records) == 4
    builds = 0 if tag == "warped" else len(traj.records) + traj.n_steps
    assert len(bundles) == len({id(geo) for geo in bundles}) == builds
    assert all(geo.metric.tag == "general" for geo in bundles)


@pytest.mark.parametrize("cadence", [1, 1000])
def test_state_metric_failure_ends_as_blowup(cadence):
    # a CFL coefficient past stability drives a conformal factor near the det
    # floor below it while it stays finite: the step's new state fails its SPD
    # check, and the run ends on the last valid state, recorded also when the
    # cadence had skipped it
    grid = Grid2D.torus(16, 16)
    X, T = grid.mesh()
    u = -6.8 + 0.05 * np.sin(X) * np.cos(T)
    setup = RunSetup("underflow", "u" * 16, _state(grid, conformal_metric(grid, u)),
                     FlowProblem(), IntegratorSpec(cfl=3.0, cadence=cadence))
    traj = run_flow(setup)
    assert traj.status == BLOWUP
    assert traj.n_steps > 0
    assert traj.records[-1].step == traj.n_steps
    last = traj.snapshots[-1]
    assert last.metric.det().min() > 1e-12
    # the step past it is finite but under the floor
    nxt = _step(last, cfl_dt(grid, setup.integrator, _cfl_bounds(last)), FlowProblem())
    assert np.all(np.isfinite(nxt.metric.u)) and nxt.metric.det().min() <= 1e-12


def test_blowup_run_emits_no_runtime_warning():
    # a CFL coefficient far past stability overflows the form; the run ends
    # with the blow-up status and numpy stays silent, with no global setting.
    # It takes 56 steps; the budget of 200 makes a finiteness check that
    # misses the overflow end the run budget-exhausted, not hang
    grid = Grid2D.torus(16, 16)
    X, _ = grid.mesh()
    st = _state(grid, flat_metric(grid),
                forms={"main": OneFormField(np.sin(X), np.zeros_like(X))})
    setup = RunSetup("overflow", "o" * 16, st,
                     FlowProblem(), IntegratorSpec(cfl=1e3, t_final=1e9, max_steps=200))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = run_flow(setup)
    assert traj.status == BLOWUP
    assert np.geterr()["over"] == "warn"


def test_buffer_breach_aborts():
    # curvature reaching far enough into the buffer changes it beyond the
    # threshold and must abort with the dedicated status
    spec = make_scenario(name="breach", family="warped-cylinder", nx=128, ny=16,
                         lx=20.0, metric_width=4.0, buffer_threshold=1e-6,
                         t_final=0.5, cadence=1, monitor_energy=False)
    traj = run_flow(spec, collect_snapshots=False)
    assert traj.status == BUFFER_BREACH
    assert traj.records[-1].values["buffer_flux"] > 1e-6


def test_run_flow_leaves_problem_alone():
    # FlowProblem is static configuration: a run on a grid with a buffer zone
    # rebinds none of its attributes
    setup = build(make_scenario(name="static", family="warped-cylinder", nx=64,
                                ny=16, lx=20.0, forms=[FormSpec("main", "dtheta")],
                                t_final=0.01, cadence=2))
    before = dict(vars(setup.problem))
    traj = run_flow(setup, collect_snapshots=False)
    assert "buffer_flux" in traj.records[-1].values
    after = vars(setup.problem)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


# ----------------------------------------------------------------- column runs
def _copy(state):
    """A state of its own vector, unpacked through the same layout, so a
    conformal metric's gxx and gtt stay one array."""
    layout = layout_of(state)
    return layout.unpack(pack(layout, state).copy(), state.t, state.step)


def _reference_run(setup):
    """run_flow's loop on full (nx, ny) states, unpacked and measured by their
    bundle after every step, for a setup that records and snapshots every step
    and stops on its step budget or a blow-up: the records, each snapshot's
    layout fields and vector, and the DegenerateMetricError of a new state
    that failed its SPD check (else None)."""
    state, problem, spec = _copy(setup.state), setup.problem, setup.integrator
    grid = state.grid
    geo = MetricInvariants(state.metric, grid)
    baseline = None
    if grid.boundary_mask.any():
        mask = grid.buffer_mask()
        baseline = {"mask": mask, "R0": geo.scalar[mask],
                    "form0": {label: phi.norm_sq(geo)[mask]
                              for label, phi in state.forms.items()}}
    layout = layout_of(state)
    k1, bounds = _rhs(pack(layout, state), layout, problem, geo, with_cfl=True)
    records, snapshots, dt = [], [], cfl_dt(grid, spec, bounds)
    while True:
        records.append(monitor_record(state, problem, dt, geo, baseline))
        snapshots.append((layout.fields, pack(layout, state).copy()))
        if state.step >= spec.max_steps:
            return records, snapshots, None
        if k1 is None:
            k1, bounds = _rhs(pack(layout, state), layout, problem, geo, with_cfl=True)
        dt = min(cfl_dt(grid, spec, bounds), spec.t_final - state.t)
        vec = flow_step(pack(layout, state), layout, dt, problem, spec.scheme, k1=k1)
        if vec is None:
            return records, snapshots, None
        state = layout.unpack(vec, state.t + dt, state.step + 1)
        try:
            geo, k1 = MetricInvariants(state.metric, grid), None
        except DegenerateMetricError as err:
            # without its traceback, whose frames would keep the caller's
            # trajectory and its open spill file alive until a collection
            return records, snapshots, err.with_traceback(None)


def _record_bits(rec):
    floats = [rec.t, rec.dt, rec.sup_R, rec.min_R, rec.vol, *rec.values.values()]
    return rec.step, rec.grid_hash, list(rec.values), np.array(floats).view(np.int64).tolist()


_INTEGRALS = ("vol", "u_mass", "u_curv_mass")
_INTEGRAL_SUFFIXES = ("_l2", "_grad_energy", "_curv_energy")


def _record_values(rec) -> dict:
    return {"t": rec.t, "dt": rec.dt, "sup_R": rec.sup_R, "min_R": rec.min_R,
            "vol": rec.vol, **rec.values}


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


def _column_records(setup, records, snapshots) -> tuple:
    """For each reference state: monitor_record of the state cut to its
    (nx, 1) columns as run_flow records a column run (through _reduce, with
    the baseline of the first cut state), and of the full state with the
    scalar curvature taken as |R|, whose integrals are those of each
    integrand's magnitude, the scale of its rounding."""
    full, baseline, cut, magnitudes = layout_of(setup.state), None, [], []
    for rec, (_, vec) in zip(records, snapshots):
        state = full.unpack(vec, rec.t, rec.step)
        geo = MetricInvariants(state.metric, state.grid)
        geo.scalar = np.abs(geo.scalar)
        magnitudes.append(monitor_record(state, setup.problem, rec.dt, geo))
        layout, column, problem = flows._reduce(state, setup.problem)
        assert layout.window == (slice(None), slice(0, 1))
        column = layout.unpack(column, rec.t, rec.step)
        geo = MetricInvariants(column.metric, column.grid)
        if baseline is None and column.grid.boundary_mask.any():
            mask = column.grid.buffer_mask()[layout.window]
            baseline = {"mask": mask, "R0": geo.scalar[mask],
                        "form0": {label: phi.norm_sq(geo)[mask]
                                  for label, phi in column.forms.items()}}
        cut.append(monitor_record(column, problem, rec.dt, geo, baseline))
    return cut, magnitudes


def _assert_records_of_the_reference(traj, setup, records, snapshots):
    """run_flow's records against the full-grid reference run's.  A run that
    is not on columns records the reference's bits.  A column run's
    non-integral values are the reference's bits; its integrals (vol, *_l2,
    *_grad_energy, *_curv_energy, u_mass, u_curv_mass) are the bits of the
    reference states cut to the column, and lie within 16 ulp of the
    integral of the integrand's magnitude: the value itself where the
    integrand is not negative, else the integral with |R| for R, which keeps
    a near-zero u_curv_mass to an absolute bound."""
    if not _spilled_shape(traj)[1] == 1 < traj.grid.ny:
        assert [_record_bits(r) for r in traj.records] == [_record_bits(r) for r in records]
        return
    assert [(r.step, r.grid_hash, list(r.values)) for r in traj.records] == \
        [(r.step, r.grid_hash, list(r.values)) for r in records]
    names = list(_record_values(records[0]))
    integrals = [n for n in names if n in _INTEGRALS or n.endswith(_INTEGRAL_SUFFIXES)]
    assert "vol" in integrals and len(integrals) > 1
    cut, magnitudes = _column_records(setup, records, snapshots)
    for recs in zip(traj.records, records, cut, magnitudes):
        run, ref, col, mag = map(_record_values, recs)
        assert [_bits(run[n]) for n in names] == \
            [_bits((col if n in integrals else ref)[n]) for n in names]
        for n in integrals:
            assert abs(run[n] - ref[n]) <= 16 * np.spacing(mag[n]), n


def _spilled_shape(traj) -> tuple:
    """The shape of the 2-D fields run_flow stepped, read off the window of
    its snapshots' layout: a run spills the vector it steps."""
    layout = traj.snapshots.layout
    grid = layout.grid
    return tuple(len(range(n)[s]) for n, s in zip((grid.nx, grid.ny), layout.window))


def _state_bits(setup):
    layout = layout_of(setup.state)
    return layout.fields, pack(layout, setup.state).view(np.int64).copy()


def _theta_dependent_torus(n, **kw):
    """A conformal torus with u = 0.2 sin x cos theta and the form
    sin x cos 2theta dx + cos(x + theta) dtheta."""
    setup = build(make_scenario(name="torus-2d", family="conformal-torus", nx=n, ny=n,
                                forms=[FormSpec("main", "sinx_dx")], **kw))
    grid = setup.state.grid
    X, T = grid.mesh()
    state = replace(setup.state, metric=conformal_metric(grid, 0.2 * np.sin(X) * np.cos(T)),
                    forms={"main": OneFormField(np.sin(X) * np.cos(2 * T), np.cos(X + T))})
    return replace(setup, state=state)


def _plane(nx=33, ny=33, edit=None, hx=1 / 8, hy=1 / 8, origin=None, **kw):
    """The cigar plane patch with spacing `hx` on x and `hy` on theta (4 x 4
    on 33 nodes by default), with `edit` applied to a copy of its u, on a
    grid with `origin` when given.  Its coordinates are exact, so u is
    mirror symmetric bit for bit about the middle of each axis, a node or
    not, and on square axes it equals its transpose bit for bit."""
    setup = build(make_scenario(name="plane", family="conformal-plane", nx=nx, ny=ny,
                                lx=(nx - 1) * hx, ly=(ny - 1) * hy, buffer_threshold=1.0,
                                **kw, **_STEPS))
    if edit is None and origin is None:
        return setup
    grid, u = setup.state.grid, setup.state.metric.u.copy()
    if origin is not None:
        grid = replace(grid, origin=origin)
    if edit is not None:
        edit(u)
    state = replace(setup.state, grid=grid, metric=conformal_metric(grid, u))
    return replace(setup, state=state)


def _at_mirror_images(u, i, j):
    """The index arrays of node (i, j) of a square u and its images under
    both mirrors."""
    n = len(u) - 1
    return np.array([i, i, n - i, n - i]), np.array([j, n - j, j, n - j])


def _one_ulp_off_the_mirror(u):
    u[3, 5] = np.nextafter(u[3, 5], np.inf)


def _one_ulp_off_the_diagonal(u):
    # node (3, 5) and its mirror images, but not (5, 3): the quadrant stays
    nodes = _at_mirror_images(u, 3, 5)
    u[nodes] = np.nextafter(u[nodes], np.inf)
    assert (u == u[::-1]).all() and (u == u[:, ::-1]).all() and (u != u.T).any()


def _signed_zero_pair(u):
    # +0.0 at the four mirror images of node (12, 10), then -0.0 at (12, 10):
    # u still equals its flips under ==, but not bit for bit
    u[[12, 12, 20, 20], [10, 22, 10, 22]] = 0.0
    u[12, 10] = -0.0
    assert (u == u[::-1]).all() and (u == u[:, ::-1]).all()


def _signed_zero_across_the_diagonal(u):
    # +0.0 at node (12, 10) and -0.0 at (10, 12), each at its mirror images:
    # u equals its flips bit for bit and its transpose under ==, not bitwise
    u[_at_mirror_images(u, 12, 10)] = 0.0
    u[_at_mirror_images(u, 10, 12)] = -0.0
    assert (u == u.T).all()


def _index_bump(u):
    # a function of the node indices, so it equals its transpose and its
    # flips bit for bit on any spacing
    k = np.arange(len(u)) - len(u) // 2
    bump = np.exp(-(k / 8.0) ** 2)
    u[...] = 0.1 * np.multiply.outer(bump, bump)


_STEPS = dict(t_final=10.0, max_steps=6, cadence=1, snapshot_every=1)
_COLUMN_CASES = {
    "flat-torus": lambda: build(make_scenario(
        name="flat", family="flat-torus", nx=16, ny=16,
        forms=[FormSpec("main", "sinx_dx")], subsolution="one-plus-cos", **_STEPS)),
    "conformal-torus": lambda: build(make_scenario(
        name="conformal", family="conformal-torus", nx=16, ny=16, metric_amplitude=0.05,
        forms=[FormSpec("main", "dtheta_dsinx", 0.3)], gauge_form="main",
        subsolution="one-plus-cos", **_STEPS)),
    "neck": lambda: build(make_scenario(
        name="neck", family="warped-cylinder", nx=64, ny=8, lx=20.0,
        forms=[FormSpec("main", "dtheta")], probes=[ProbeSpec("loop", "main")], **_STEPS)),
    "torus-2d": lambda: _theta_dependent_torus(32, **_STEPS),
    "plane": _plane,
    "plane-odd-theta": lambda: _plane(nx=32),
    "plane-ulp": lambda: _plane(edit=_one_ulp_off_the_mirror),
    "plane-signed-zero": lambda: _plane(edit=_signed_zero_pair),
    "plane-even": lambda: _plane(nx=32, ny=32),
    "plane-stretched": lambda: _plane(hy=1 / 4, edit=_index_bump),
    # spacing 3/32, so 1/(2h) = 16/3 is not a power of two and its products round
    "plane-three-32nds": lambda: _plane(hx=3 / 32, hy=3 / 32),
    "plane-ulp-diagonal": lambda: _plane(edit=_one_ulp_off_the_diagonal),
    "plane-signed-zero-diagonal": lambda: _plane(edit=_signed_zero_across_the_diagonal),
    "plane-origin": lambda: _plane(origin=(16, 5)),
    "plane-form": lambda: _plane(forms=[FormSpec("main", "dtheta")]),
    "plane-subsolution": lambda: _plane(subsolution="bump"),
}
# the shape of each 2-D field the run steps
_STEPPED = {"flat-torus": (16, 1), "conformal-torus": (16, 1), "neck": (64, 1),
            "torus-2d": (32, 32), "plane": (17, 17),
            "plane-odd-theta": (32, 17), "plane-ulp": (33, 33),
            "plane-signed-zero": (33, 33), "plane-even": (32, 32),
            "plane-stretched": (17, 17), "plane-three-32nds": (17, 17),
            "plane-ulp-diagonal": (17, 17),
            "plane-signed-zero-diagonal": (17, 17), "plane-origin": (17, 33),
            "plane-form": (33, 33), "plane-subsolution": (33, 33)}
# the cases whose rates take d_t d_t u as the transpose of d_x d_x u
_TRANSPOSED = {"plane", "plane-even", "plane-three-32nds"}


def _stepped_shapes(monkeypatch, setup):
    """run_flow of `setup`, the shapes of the 2-D fields of every layout its
    rates were taken in, and for each rate whether it differenced along
    theta (a transposed rate does not): by Grid2D.diff_t, or by
    Grid2D.diff2_half on axis 1."""
    shapes, thetas, rhs = set(), set(), flows._rhs
    diff_t, diff2_half = Grid2D.diff_t, Grid2D.diff2_half
    calls = []

    def counted_diff_t(grid, a):
        calls.append(a.shape)
        return diff_t(grid, a)

    def counted_diff2_half(grid, a, axis):
        if axis == 1:
            calls.append(a.shape)
        return diff2_half(grid, a, axis)

    def spy(vec, layout, *args, **kw):
        shapes.update(shape for _, shape, _ in layout.fields if len(shape) == 2)
        before = len(calls)
        out = rhs(vec, layout, *args, **kw)
        thetas.add(len(calls) > before)
        return out

    monkeypatch.setattr(flows, "_rhs", spy)
    monkeypatch.setattr(Grid2D, "diff_t", counted_diff_t)
    monkeypatch.setattr(Grid2D, "diff2_half", counted_diff2_half)
    traj = run_flow(setup)
    monkeypatch.undo()
    return traj, shapes, thetas


@pytest.mark.parametrize("case", _COLUMN_CASES)
def test_column_run_is_the_full_grid_run_bitwise(case, monkeypatch):
    # a theta-invariant state runs on (nx, 1) columns, a metric-only
    # conformal plane whose u is mirror-symmetric bit for bit on the half of
    # each such axis from its center node on, any other state at full
    # width; a metric-only conformal u that equals its transpose bit for bit
    # on matching axes and one window on both differences along x alone;
    # either way every snapshot vector is the full-grid reference's, bit for
    # bit, and so is every record value but a column run's integrals, which
    # are column sums (_assert_records_of_the_reference); the setup is left
    # as it was
    setup = _COLUMN_CASES[case]()
    state_before, problem_before = _state_bits(setup), dict(vars(setup.problem))
    traj, shapes, thetas = _stepped_shapes(monkeypatch, setup)
    records, snapshots, _ = _reference_run(setup)
    assert shapes == {_STEPPED[case]}
    assert thetas == {case not in _TRANSPOSED}
    # a run spills the fields it steps: columns, a quadrant or the full grid
    assert _spilled_shape(traj) == _STEPPED[case]
    assert traj.status == BUDGET and len(traj.records) == _STEPS["max_steps"] + 1
    _assert_records_of_the_reference(traj, setup, records, snapshots)
    assert len(traj.snapshots) == len(snapshots)
    for snap, (fields, vec) in zip(traj.snapshots, snapshots):
        assert layout_of(snap).fields == fields
        assert np.array_equal(snap.vector.view(np.int64), vec.view(np.int64))
    fields, bits = _state_bits(setup)
    assert fields == state_before[0] and np.array_equal(bits, state_before[1])
    assert all(vars(setup.problem)[key] is value for key, value in problem_before.items())


def test_conformal_run_builds_metrics_only_where_read(monkeypatch):
    # a metric-only conformal run checks each new state on u alone and builds
    # a metric and a bundle only for a state that is read: here one of each
    # per record (steps 0, 50, 100 and the final 120), where a run that
    # measured every state would build 121; the records and the final state
    # keep the bits of the reference run, which does
    import riccilab.flows as flows
    import riccilab.geometry.fields as fields
    setup = build(make_scenario(name="plane", family="conformal-plane", nx=33, ny=33,
                                lx=4.0, ly=4.0, buffer_threshold=1.0, t_final=10.0,
                                max_steps=120, cadence=50))
    calls = {"metric": 0, "bundle": 0}
    conformal_metric_, bundle_ = fields.conformal_metric, flows.MetricInvariants

    def counted_metric(grid, u):
        calls["metric"] += 1
        return conformal_metric_(grid, u)

    def counted_bundle(g, grid):
        calls["bundle"] += 1
        return bundle_(g, grid)

    monkeypatch.setattr(fields, "conformal_metric", counted_metric)
    monkeypatch.setattr(flows, "conformal_metric", counted_metric)
    monkeypatch.setattr(flows, "MetricInvariants", counted_bundle)
    traj = run_flow(setup)
    monkeypatch.undo()
    assert traj.status == BUDGET and [r.step for r in traj.records] == [0, 50, 100, 120]
    assert calls == {"metric": len(traj.records), "bundle": len(traj.records)}

    records, snapshots, _ = _reference_run(replace(
        setup, integrator=replace(setup.integrator, cadence=1, snapshot_every=1)))
    assert [_record_bits(r) for r in traj.records] == \
        [_record_bits(records[r.step]) for r in traj.records]
    assert np.array_equal(traj.snapshots[-1].vector.view(np.int64),
                          snapshots[-1][1].view(np.int64))


def test_halved_state_metric_failure_ends_as_blowup_on_the_full_grid(monkeypatch):
    # a mirror-symmetric conformal factor between the det floor and the
    # fast check's margin, stepped past stability on its quadrant: every new
    # state takes the node-by-node check on the quadrant, which holds every
    # value of u, so the run ends blow-up-detected where the full-grid
    # reference does, with its records, and the check fails once, on the
    # reference's det
    grid = Grid2D.plane(33, 33, 4.0, 4.0)
    X, T = grid.mesh()
    u = -6.8 + 0.05 * np.exp(-(X ** 2 + T ** 2))
    setup = RunSetup("underflow", "u" * 16, _state(grid, conformal_metric(grid, u)),
                     FlowProblem(buffer_threshold=math.inf),
                     IntegratorSpec(cfl=3.0, t_final=100.0, max_steps=50, cadence=1,
                                    snapshot_every=1))
    errors = []

    def spy(grid, u):
        try:
            require_conformal_spd(grid, u)
        except DegenerateMetricError as err:
            errors.append((err.node, err.det))
            raise

    monkeypatch.setattr(flows, "require_conformal_spd", spy)
    traj, shapes, _ = _stepped_shapes(monkeypatch, setup)
    records, _, err = _reference_run(setup)
    assert shapes == {(17, 17)}
    assert traj.status == BLOWUP and err is not None
    assert traj.n_steps == records[-1].step < setup.integrator.max_steps
    assert [_record_bits(r) for r in traj.records] == [_record_bits(r) for r in records]
    assert [det for _, det in errors] == [err.det]


@pytest.mark.parametrize("case", ["plane", "conformal-torus"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nonfinite_u_ends_as_blowup_at_its_step(case, value, monkeypatch):
    # flow_step does not scan a conformal u: a NaN or infinite node that the
    # third step writes into u fails the new state's require_conformal_spd,
    # so the run ends blow-up-detected after two steps, with the records of
    # the full-grid reference run through step 2 and no warning
    setup = _COLUMN_CASES[case]()
    advance, calls = flows._advance, []

    def poisoned(vec, *args):
        new = advance(vec, *args)
        calls.append(None)
        if len(calls) == 3:
            new[5] = value
        return new

    monkeypatch.setattr(flows, "_advance", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = run_flow(setup)
    monkeypatch.undo()
    records, snapshots, _ = _reference_run(replace(setup, integrator=replace(
        setup.integrator, max_steps=2)))
    assert traj.status == BLOWUP and traj.n_steps == 2 and len(calls) == 3
    _assert_records_of_the_reference(traj, setup, records, snapshots)


def test_theta_dependent_torus_passes_l2_and_sup_on_every_pair():
    traj = run_flow(_theta_dependent_torus(32, t_final=0.25, cadence=1),
                    collect_snapshots=False)
    assert traj.status == COMPLETED
    for report in (l2_monotonicity_report, max_principle_report):
        result = report(traj, "main")
        assert result.passed and result.checked == len(traj.records) - 1


def test_signed_zero_keeps_the_state_full_width():
    # +0.0 and -0.0 compare equal, but a column run would lose the -0.0 node
    setup = build(make_scenario(name="zero", family="flat-torus", nx=16, ny=16,
                                forms=[FormSpec("main", "dtheta")], **_STEPS))
    x = setup.state.forms["main"].x
    x[3, 5] = -0.0
    assert (x == x[:, :1]).all()
    traj = run_flow(setup)
    assert _spilled_shape(traj) == (16, 16)
    first = traj.snapshots[0].forms["main"].x
    assert np.signbit(first[3, 5]) and np.signbit(first).sum() == 1


# ----------------------------------------------------------------- steppers
def test_single_system_steps_leave_others_alone():
    # a state carries only the systems it tracks: stepping the metric alone, or
    # the form alone on the flat metric, leaves the other fields as they were
    grid = Grid2D.torus(32, 32)
    X, _ = grid.mesh()
    st = _state(grid, flat_metric(grid),
                forms={"main": OneFormField(np.sin(X), np.zeros_like(X))},
                subsolution=1.0 + 0.3 * np.cos(X))
    out = _step(_state(grid, st.metric), 1e-3, FlowProblem())
    assert out.forms == {} and out.subsolution is None
    assert st.forms["main"].x == pytest.approx(np.sin(X))
    out2 = _step(_state(grid, st.metric, forms=st.forms), 1e-3, FlowProblem())
    assert out2.subsolution is None
    assert st.subsolution == pytest.approx(1.0 + 0.3 * np.cos(X))
    assert np.max(np.abs(out2.forms["main"].x - st.forms["main"].x)) > 0


def test_gauge_diffusion_step_runs():
    grid = Grid2D.torus(32, 32)
    X, _ = grid.mesh()
    base = OneFormField(np.sin(X), np.zeros_like(X))
    st = _state(grid, flat_metric(grid), forms={"main": base.copy()},
                gauge=np.zeros((32, 32)))
    out = _step(st, 1e-3, FlowProblem(gauge_base=base))
    assert np.max(np.abs(out.gauge)) > 0.0


def test_rk4_sharper_than_rk2():
    errors = {}
    for scheme in ("rk2", "rk4"):
        spec = make_scenario(name=f"s-{scheme}", family="flat-torus", nx=32,
                             ny=32, forms=[FormSpec("main", "sinx_dx")],
                             scheme=scheme, t_final=0.2, cadence=10,
                             monitor_energy=False)
        traj = run_flow(spec)
        grid = traj.grid
        X, _ = grid.mesh()
        lam = (math.sin(grid.hx) / grid.hx) ** 2
        exact = math.exp(-lam * 0.2) * np.sin(X)
        errors[scheme] = np.max(np.abs(traj.snapshots[-1].forms["main"].x - exact))
    assert errors["rk2"] < 1e-5
    assert errors["rk4"] < 0.01 * errors["rk2"]


def test_run_records_are_deterministic():
    spec = make_scenario(name="det", family="conformal-torus", nx=32, ny=32,
                         forms=[FormSpec("main", "sinx_dx")], t_final=0.1,
                         cadence=1)
    a = run_flow(spec, collect_snapshots=False)
    b = run_flow(spec, collect_snapshots=False)
    for ra, rb in zip(a.records, b.records):
        assert ra.values == rb.values and ra.t == rb.t


# ----------------------------------------------------------------- snapshots
def _open_descriptors() -> int:
    # collected first, so that a spill file an earlier test left in a
    # reference cycle cannot close between two counts
    gc.collect()
    return len(os.listdir("/dev/fd"))


def test_snapshots_spill_to_one_descriptor(many_snapshots_spec):
    # a run's snapshots live in one unlinked file, open while its trajectory
    # lives; a run without snapshots opens none
    before = _open_descriptors()
    traj = run_flow(many_snapshots_spec, collect_snapshots=False)
    assert traj.snapshots == [] and _open_descriptors() == before
    traj = run_flow(many_snapshots_spec)
    assert len(traj.snapshots) > 90
    assert _open_descriptors() == before + 1
    del traj
    assert _open_descriptors() == before


def test_snapshot_reads_are_arrays_of_their_own(many_snapshots_spec):
    # each read of a snapshot is a fresh copy of the state taken: equal to
    # the last read, sharing no memory with it, and writing into it changes
    # no later read
    snaps = run_flow(many_snapshots_spec).snapshots
    a, b = snaps[5], snaps[5]
    assert (a.t, a.step) == (b.t, b.step) == (snaps[5].t, 5)
    assert a.vector is not b.vector and not np.shares_memory(a.vector, b.vector)
    assert np.array_equal(a.vector, b.vector)
    assert np.array_equal(a.forms["main"].x, b.forms["main"].x)
    kept = b.vector.copy()
    a.metric.u[...] = 0.0
    a.forms["main"].theta[...] = np.nan
    assert np.array_equal(snaps[5].vector, kept)
    assert [s.step for s in snaps] == list(range(len(snaps)))
    assert snaps[-1].step == len(snaps) - 1


@pytest.mark.parametrize("case", ["many", "plane"])
def test_snapshot_slices_are_lists_of_the_items(case, many_snapshots_spec, tmp_path):
    # a slice of the snapshots of a run, spilled, or of its reloaded
    # directory, a list, holds the snapshots at the slice's indices, each
    # read as an item access reads it; the plane's are read widened from
    # its quadrant
    traj = run_flow(many_snapshots_spec if case == "many" else _plane())
    write_outputs(traj, tmp_path)
    for snaps in (traj.snapshots, load_run(tmp_path).snapshots):
        n = len(snaps)
        for cut in (slice(0, 2), slice(0, 3), slice(None, None, -3), slice(-3, None),
                    slice(5, 1), slice(n - 2, n + 5)):
            sliced, items = snaps[cut], [snaps[i] for i in range(n)[cut]]
            assert isinstance(sliced, list) and len(sliced) == len(items)
            for a, b in zip(sliced, items):
                assert (a.t, a.step, a.layout.fields) == (b.t, b.step, b.layout.fields)
                assert np.array_equal(a.vector.view(np.int64), b.vector.view(np.int64))


def test_snapshots_leave_memory_during_the_run(many_snapshots_spec):
    # the traced peak of a run stays below the bytes of the snapshot vectors
    # it took, which a run holding them all would exceed
    setup = build(many_snapshots_spec)
    tracemalloc.start()
    try:
        traj = run_flow(setup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.snapshots) > 90
    assert peak < sum(s.vector.nbytes for s in traj.snapshots)
