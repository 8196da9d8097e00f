"""The acceptance suites behind `riccilab verify`.

Each suite checks one family of runtime guarantees at pinned tolerances and
returns CriterionResult rows; `run_suites` prints one pass/fail line per
criterion and maps the outcome to an exit code.  Runs are cached by scenario
hash inside the process, so suites that share a scenario (the sup-norm checks
reuse the decay and neck runs) do not recompute it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .blowup import RescalingSchedule, length_scaling_check
from .flows import COMPLETED, Trajectory, run_flow
from .functionals import (ThetaCircle, form_energy_identity_report,
                          l1_monotonicity_report, l2_monotonicity_report,
                          length_bound_report, max_principle_report,
                          min_circumference)
from .geometry import (Grid2D, MetricInvariants, OneFormField, codifferential,
                       conformal_metric, general_metric, hodge_laplacian,
                       laplace_beltrami, reduced_scalar_curvature)
from .scenario import (FormSpec, ProbeSpec, build, build_geometry, make_scenario,
                       scenario_hash)


@dataclass
class CriterionResult:
    suite: str
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.suite} :: {self.name}: {self.detail}"


_RUN_CACHE: dict = {}


def _cached_run(spec, snapshots=False) -> Trajectory:
    key = (scenario_hash(spec), snapshots)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = run_flow(spec, collect_snapshots=snapshots)
    return _RUN_CACHE[key]


def _order(sizes, errors) -> float:
    """The convergence order: minus the least-squares slope of log error
    against log size, which at two sizes is the pairwise order."""
    return float(-np.polyfit(np.log(sizes), np.log(errors), 1)[0])


# ------------------------------------------------------------- shared scenarios
def _flat_decay_spec():
    return make_scenario(
        name="flat-decay", family="flat-torus", nx=128, ny=128,
        forms=[FormSpec("main", "sinx_dx")], dt_cap=2e-4, t_final=1.0,
        cadence=1, monitor_energy=False)


def _conformal_form_spec(nx=128, t_final=0.5, energy=False):
    return make_scenario(
        name=f"conformal-form-{nx}", family="conformal-torus", nx=nx, ny=nx,
        metric_amplitude=0.05, forms=[FormSpec("main", "sinx_dx")],
        t_final=t_final, cadence=1, monitor_energy=energy)


def _neck_spec():
    return make_scenario(
        name="neck", family="warped-cylinder", nx=512, ny=64, lx=20.0,
        metric_outer=2.0, metric_dip=1.0, metric_width=1.0,
        forms=[FormSpec("main", "dtheta")], probes=[ProbeSpec("loop", "main")],
        t_final=0.25, cadence=1, monitor_energy=False)


def _cigar_spec():
    return make_scenario(
        name="cigar", family="conformal-plane", nx=257, ny=257, lx=16.0, ly=16.0,
        t_final=0.5, cadence=200, cfl=0.5, buffer_threshold=1.0,
        monitor_energy=False)


# ------------------------------------------------------------- suite 1
def suite_l2_monotonicity() -> list:
    out = []
    traj = _cached_run(_flat_decay_spec())
    rep = l2_monotonicity_report(traj, "main")
    ratio = traj.records[-1].values["main_l2"] / traj.records[0].values["main_l2"]
    err = abs(ratio / math.exp(-1.0) - 1.0)
    out.append(CriterionResult(
        "l2-monotonicity", "static flat decay ratio",
        err <= 1e-3 and traj.status == COMPLETED,
        f"|phi(1)|/|phi(0)| = {ratio:.6f}, e^-1 rel err {err:.2e} (tol 1e-3)"))
    out.append(CriterionResult(
        "l2-monotonicity", "static flat series non-increasing",
        rep.passed and rep.checked > 0,
        f"worst step increment {rep.worst_margin:.2e} over {rep.checked} pairs "
        f"(tol {rep.notes['tolerance']:.2e})"))

    traj_b = _cached_run(_conformal_form_spec())
    rep_b = l2_monotonicity_report(traj_b, "main")
    out.append(CriterionResult(
        "l2-monotonicity", "evolving conformal torus",
        rep_b.passed and rep_b.checked > 0,
        f"worst step increment {rep_b.worst_margin:.2e} over {rep_b.checked} pairs "
        f"(tol {rep_b.notes['tolerance']:.2e})"))
    return out


# ------------------------------------------------------------- suite 2
def suite_energy_identity() -> list:
    out = []
    sizes = (64, 128)
    for family, name in (("flat-torus", "static"), ("conformal-torus", "evolving")):
        residuals = []
        for nx in sizes:
            spec = make_scenario(
                name=f"energy-{name}-{nx}", family=family, nx=nx, ny=nx,
                metric_amplitude=0.05, forms=[FormSpec("main", "sinx_dx")],
                t_final=0.25, cadence=1, monitor_energy=True)
            traj = _cached_run(spec)
            rep = form_energy_identity_report(traj, "main")
            residuals.append(rep.worst_margin)
            if nx == 128:
                tol = 1e-3 * rep.notes["initial_energy"]
                out.append(CriterionResult(
                    "energy-identity", f"{name} background residual at nx=128",
                    rep.worst_margin <= tol,
                    f"max residual {rep.worst_margin:.2e} <= {tol:.2e}"))
        order = _order(sizes, residuals)
        out.append(CriterionResult(
            "energy-identity", f"{name} refinement order 64->128",
            order >= 1.5, f"measured order {order:.2f} (need >= 1.5)"))
    return out


# ------------------------------------------------------------- suite 3
def suite_mass_inequality() -> list:
    out = []
    spec = make_scenario(
        name="mass-evolving", family="conformal-torus", nx=128, ny=128,
        metric_amplitude=0.05, subsolution="one-plus-cos",
        t_final=0.5, cadence=1, monitor_energy=False)
    traj = _cached_run(spec)
    rep = l1_monotonicity_report(traj)
    out.append(CriterionResult(
        "mass-inequality", "evolving conformal torus accumulated inequality",
        rep.passed,
        f"worst m(t)+I(t)-m(0) = {rep.worst_margin:.2e} "
        f"(tol {rep.notes['tolerance']:.2e})"))

    spec_flat = make_scenario(
        name="mass-static", family="flat-torus", nx=128, ny=128,
        subsolution="one-plus-cos", t_final=0.5, cadence=1, monitor_energy=False)
    traj_flat = _cached_run(spec_flat)
    masses = np.array([r.values["u_mass"] for r in traj_flat.records])
    drift = float(np.max(np.abs(masses - masses[0]))) / masses[0]
    out.append(CriterionResult(
        "mass-inequality", "static flat mass conservation",
        drift <= 1e-6, f"max relative drift {drift:.2e} (tol 1e-6)"))
    return out


# ------------------------------------------------------------- suite 4
def suite_length_bound() -> list:
    out = []
    setup = build(_neck_spec())
    traj = _cached_run(_neck_spec(), snapshots=True)
    probe = setup.problem.probes["main"]
    rep = length_bound_report(probe, traj)
    out.append(CriterionResult(
        "length-bound", "uniform lower bound and chained inequality",
        rep.passed and traj.status == COMPLETED,
        f"pairing {rep.notes['pairing']:.6f}, bound margin "
        f"{rep.notes['bound_margin']:.2e}, chain margin {rep.notes['chain_margin']:.2e}"))

    two_pi = 2 * math.pi
    lengths = np.array([r.values["L_alpha"] for r in traj.records])
    worst = float(np.min(lengths)) - two_pi
    out.append(CriterionResult(
        "length-bound", "L_alpha(t) >= 2 pi",
        worst >= -1e-6 * two_pi,
        f"min L_alpha - 2 pi = {worst:.2e} (slack tol {1e-6 * two_pi:.2e})"))
    return out


# ------------------------------------------------------------- suite 5
def suite_sup_monotonicity() -> list:
    out = []
    for spec, label in ((_flat_decay_spec(), "static flat"),
                        (_conformal_form_spec(), "evolving conformal"),
                        (_neck_spec(), "neck cylinder")):
        traj = _cached_run(spec, snapshots=(spec.name == "neck"))
        rep = max_principle_report(traj, "main")
        out.append(CriterionResult(
            "sup-monotonicity", f"{label} sup series non-increasing",
            rep.passed,
            f"worst step increment {rep.worst_margin:.2e} "
            f"(tol {rep.notes['tolerance']:.2e}, {rep.checked} steps)"))
    return out


# ------------------------------------------------------------- suite 6
def suite_gauge_equivalence() -> list:
    out = []
    spec_static = make_scenario(
        name="gauge-static", family="flat-torus", nx=128, ny=128,
        forms=[FormSpec("main", "sinx_dx")], gauge_form="main",
        t_final=0.5, cadence=5, monitor_energy=False)
    traj = _cached_run(spec_static)
    gap = max(r.values["gauge_gap"] for r in traj.records)
    out.append(CriterionResult(
        "gauge-equivalence", "static flat torus",
        gap <= 1e-6, f"max sup gap {gap:.2e} (tol 1e-6)"))

    spec_evol = make_scenario(
        name="gauge-evolving", family="conformal-torus", nx=128, ny=128,
        metric_amplitude=0.05, forms=[FormSpec("main", "dtheta_dsinx", 0.3)],
        gauge_form="main", t_final=0.5, cadence=5, monitor_energy=False)
    traj_e = _cached_run(spec_evol)
    gap_e = max(r.values["gauge_gap"] for r in traj_e.records)
    out.append(CriterionResult(
        "gauge-equivalence", "evolving conformal torus",
        gap_e <= 1e-4, f"max sup gap {gap_e:.2e} (tol 1e-4)"))
    return out


# ------------------------------------------------------------- suite 7
def _background(label, n):
    """The suite's backgrounds at n nodes per axis: the cigar plane, the neck
    cylinder and a conformal torus."""
    if label == "cigar":
        return build_geometry(make_scenario(family="conformal-plane", nx=n, ny=n,
                                            lx=10.0, ly=10.0))
    if label == "neck":
        return build_geometry(make_scenario(family="warped-cylinder", nx=n, lx=20.0,
                                            ny=max((n - 1) // 4, 16), metric_width=2.5))
    grid = Grid2D.torus(n - 1, n - 1)
    X, T = grid.mesh()
    return grid, conformal_metric(grid, 0.05 * np.sin(X) * np.cos(T))


def _windowed_mesh(grid):
    """The mesh, and a Gaussian window along each truncated axis."""
    X, T = grid.mesh()
    win = np.exp(-(X / 4.0) ** 2) if grid.topology_x == "truncated" else np.ones_like(X)
    if grid.topology_y == "truncated":
        win = win * np.exp(-(T / 4.0) ** 2)
    return X, T, win


def _operator_gap(grid, metric):
    X, T, win = _windowed_mesh(grid)
    phi = OneFormField(win * np.cos(2 * np.pi * X / grid.lx),
                       1.0 + 0.3 * win * np.cos(2 * np.pi * T / grid.ly))
    geo = MetricInvariants(metric, grid)
    a = hodge_laplacian(phi, geo, method="dd")
    b = hodge_laplacian(phi, geo, method="bochner")
    mask = grid.interior_mask()
    return max(float(np.max(np.abs((a.x - b.x))[mask])),
               float(np.max(np.abs((a.theta - b.theta))[mask])))


def _path_gap(grid, metric):
    """The largest difference between the closed forms of a tagged metric and
    the general algebra of its general-tagged copy, over codifferential, the
    dd Hodge Laplacian and laplace_beltrami, each relative to the general
    result's sup.  The form has exact and coexact parts but no harmonic part:
    the closed forms map a harmonic constant such as dtheta to exactly zero,
    the general algebra to its own rounding, twice differenced."""
    X, T, win = _windowed_mesh(grid)
    kx, ky = 2 * np.pi / grid.lx, 2 * np.pi / grid.ly
    phi = OneFormField(win * np.sin(kx * X) * np.cos(ky * T), win * np.cos(kx * X + ky * T))
    F = win * np.sin(kx * X + ky * T)

    def outputs(geo):
        return (codifferential(phi, geo),
                hodge_laplacian(phi, geo, "dd").components(),
                laplace_beltrami(F, geo))

    copy = general_metric(metric.gxx, metric.gxt, metric.gtt)
    pairs = zip(outputs(MetricInvariants(metric, grid)),
                outputs(MetricInvariants(copy, grid)))
    return max(float(np.max(np.abs(a - b)) / np.max(np.abs(b))) for a, b in pairs)


def suite_bochner_consistency() -> list:
    out = []
    sizes = (65, 129, 257)

    flat_gaps = [_operator_gap(*build_geometry(make_scenario(
        family="flat-torus", nx=n - 1, ny=n - 1))) for n in sizes]
    out.append(CriterionResult(
        "bochner-consistency", "flat torus (paths identical)",
        max(flat_gaps) <= 1e-12,
        f"max sup difference {max(flat_gaps):.2e} (roundoff floor)"))

    for label in ("cigar", "neck"):
        gaps = [_operator_gap(*_background(label, n)) for n in sizes]
        slope = _order(sizes, gaps)
        out.append(CriterionResult(
            "bochner-consistency", f"{label} background convergence order",
            slope >= 1.9,
            f"sup gaps {['%.2e' % g for g in gaps]}, fitted order {slope:.2f}"))

    worst = max(_path_gap(*_background(label, n))
                for label in ("cigar", "neck", "conformal-torus") for n in sizes)
    out.append(CriterionResult(
        "bochner-consistency", "reduced and general operators agree",
        worst <= 1e-12,
        f"max relative difference {worst:.2e} over cigar, neck and conformal torus "
        f"at {len(sizes)} sizes (tol 1e-12)"))
    return out


# ------------------------------------------------------------- suite 8
def suite_cigar_steadiness() -> list:
    traj = _cached_run(_cigar_spec())
    sup = [r.sup_R for r in traj.records]
    ok = traj.status == COMPLETED and min(sup) >= 3.92 and max(sup) <= 4.08
    return [CriterionResult(
        "cigar-steadiness", "sup R within [3.92, 4.08] over [0, 0.5]",
        ok, f"sup R in [{min(sup):.4f}, {max(sup):.4f}], status {traj.status}")]


# ------------------------------------------------------------- suite 9
def suite_scaling_laws() -> list:
    out = []
    grid, g = build_geometry(make_scenario(family="warped-cylinder", nx=128, ny=32, lx=20.0))
    grid_c = Grid2D.torus(64, 64)
    Xc, Tc = grid_c.mesh()
    g_c = conformal_metric(grid_c, 0.2 * np.sin(Xc) * np.cos(Tc))

    worst_R = 0.0
    worst_L = 0.0
    for lam in (0.25, 1.0, 4.0, 100.0):
        for metric, gr in ((g, grid), (g_c, grid_c)):
            scaled = metric.rescaled(lam)
            r0 = reduced_scalar_curvature(metric, gr)
            r1 = reduced_scalar_curvature(scaled, gr)
            denom = max(float(np.max(np.abs(r0))), 1e-300)
            worst_R = max(worst_R, float(np.max(np.abs(r1 - r0 / lam))) / denom)
        L0, _ = min_circumference(g, grid)
        L1, _ = min_circumference(g.rescaled(lam), grid)
        worst_L = max(worst_L, abs(L1 - math.sqrt(lam) * L0) / L0)
    out.append(CriterionResult(
        "scaling-laws", "R(lam g) = R/lam for lam in {0.25,1,4,100}",
        worst_R <= 1e-10, f"worst relative residual {worst_R:.2e} (tol 1e-10)"))
    out.append(CriterionResult(
        "scaling-laws", "L(lam g) = sqrt(lam) L",
        worst_L <= 1e-10, f"worst relative residual {worst_L:.2e} (tol 1e-10)"))

    traj = _cached_run(_neck_spec(), snapshots=True)
    times = np.linspace(0.0, traj.t_end, 9)
    schedule = RescalingSchedule([(float(t), float(2.0 ** k))
                                  for k, t in enumerate(times)])
    check = length_scaling_check(traj, schedule,
                                 ThetaCircle(traj.grid.origin[0]))
    out.append(CriterionResult(
        "scaling-laws", "rescaled lengths diverge under lam_k = 2^k",
        check["sqrt_law_holds"] and check["rescaled_lengths_diverge"],
        f"lengths {check['rows'][0]['rescaled_length']:.3f} -> "
        f"{check['rows'][-1]['rescaled_length']:.3f}, "
        f"min source length {check['min_source_length']:.3f}"))
    return out


# ------------------------------------------------------------- suite 10
def exit_code_for(results) -> int:
    return 0 if all(r.passed for r in results) else 1


def suite_infrastructure() -> list:
    from .outputs import monitors_csv_text
    from .scenario import parse_scenario, serialize_scenario

    out = []
    spec = make_scenario(name="determinism", family="flat-torus", nx=64, ny=64,
                         forms=[FormSpec("main", "sinx_dx")], t_final=0.1,
                         cadence=1, monitor_energy=True)
    csv_a = monitors_csv_text(run_flow(spec, collect_snapshots=False))
    csv_b = monitors_csv_text(run_flow(spec, collect_snapshots=False))
    out.append(CriterionResult(
        "infrastructure", "repeated runs byte-identical monitors.csv",
        csv_a == csv_b, f"{len(csv_a)} bytes compared"))

    specs = [_flat_decay_spec(), _neck_spec(), _cigar_spec(),
             make_scenario(name="gauge", family="conformal-torus",
                           forms=[FormSpec("a", "dtheta_dsinx", 0.3)],
                           gauge_form="a", subsolution="bump", sink=0.5)]
    ok = all(parse_scenario(serialize_scenario(s)) == s for s in specs)
    out.append(CriterionResult(
        "infrastructure", "parse/serialize round-trip",
        ok, f"{len(specs)} scenarios round-tripped"))

    fake_pass = [CriterionResult("x", "a", True, "")]
    fake_fail = [CriterionResult("x", "a", True, ""),
                 CriterionResult("x", "b", False, "")]
    mapping_ok = exit_code_for(fake_pass) == 0 and exit_code_for(fake_fail) == 1
    out.append(CriterionResult(
        "infrastructure", "verify exit code reflects suite results",
        mapping_ok, "0 on all-pass, 1 on any failure"))
    return out


SUITES = {
    "l2-monotonicity": suite_l2_monotonicity,
    "energy-identity": suite_energy_identity,
    "mass-inequality": suite_mass_inequality,
    "length-bound": suite_length_bound,
    "sup-monotonicity": suite_sup_monotonicity,
    "gauge-equivalence": suite_gauge_equivalence,
    "bochner-consistency": suite_bochner_consistency,
    "cigar-steadiness": suite_cigar_steadiness,
    "scaling-laws": suite_scaling_laws,
    "infrastructure": suite_infrastructure,
}


def run_suites(names, stream=None) -> int:
    stream = stream or sys.stdout
    results = []
    for name in names:
        for res in SUITES[name]():
            results.append(res)
            print(res.line(), file=stream)
    code = exit_code_for(results)
    total = len(results)
    passed = sum(r.passed for r in results)
    print(f"{passed}/{total} criteria passed", file=stream)
    return code
