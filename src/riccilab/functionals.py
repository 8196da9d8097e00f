"""Monitored quantities and pass/fail reports: norms, loop pairings and lengths,
mass and energy inequalities, sup-norm monotonicity, cutoff construction.

Report functions consume a trajectory-like object exposing `.records`, a list
of MonitorRecord.  Verdicts for monotonicity statements that hold only under a
curvature-sign hypothesis carry an explicit "hypothesis held" count, so they
are asserted exactly on their hypothesis domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainTooSmallError, IncompleteTrajectoryError,
                     InvalidCycleError, InvalidSubsolutionError,
                     ProbeOrderError)
from .geometry import (PERIODIC, Grid2D, MetricField, MetricInvariants, OneFormField,
                       distance_field, exterior_derivative, unbroadcast)

CLOSEDNESS_TOL = 1e-10
HYPOTHESIS_TOL = 1e-10   # min R >= -this counts as "R >= 0 held"


# ---------------------------------------------------------------------- quadrature
def integrate(values: np.ndarray, geo: MetricInvariants) -> float:
    """Integral of a scalar density against dv_g (fixed-order summation).
    A warped sqrt(det g) is read on its column.  Where the density and
    sqrt(det g) are both one wide on a periodic theta axis, every column of
    the product is the first, so the first is summed and multiplied by ny:
    within a few ulp of the full-grid sum, not its bits."""
    grid, sd = geo.grid, unbroadcast(geo.sqrt_det)
    if grid.topology_y == PERIODIC and np.shape(values)[1:] == sd.shape[1:] == (1,):
        return float(np.sum(values * sd * grid.weights[:, :1]) * grid.ny)
    return float(np.sum(values * sd * grid.weights))


def l2_norm_form(phi: OneFormField, geo: MetricInvariants) -> float:
    return float(np.sqrt(integrate(phi.norm_sq(geo), geo)))


def lp_norm_scalar(u: np.ndarray, geo: MetricInvariants, p: float) -> float:
    """(integral u^p dv)^(1/p) for p >= 1; mild discretization negativity is
    clipped in the quadrature only, anything worse is an invalid subsolution."""
    if p < 1:
        raise ValueError("p must be >= 1")
    vals = np.asarray(u)
    floor = -1e-10 * max(1.0, float(np.max(np.abs(vals))))
    if float(np.min(vals)) < floor:
        raise InvalidSubsolutionError(f"u attains {float(np.min(vals)):g} < {floor:g}")
    clipped = np.clip(vals, 0.0, None)
    return float(integrate(clipped ** p, geo) ** (1.0 / p))


def sup_norm_form(phi: OneFormField, geo: MetricInvariants) -> float:
    return sup_norm_form_argmax(phi, geo)[0]


def sup_norm_form_argmax(phi: OneFormField, geo: MetricInvariants):
    """(sup |phi|_g, argmax node); ties resolve to the first node in row-major
    order, so the reduction is deterministic."""
    nsq = phi.norm_sq(geo)
    k = int(np.argmax(nsq))
    node = np.unravel_index(k, nsq.shape)
    return float(np.sqrt(nsq[node])), (int(node[0]), int(node[1]))


# ---------------------------------------------------------------------- cycles
@dataclass(frozen=True)
class ThetaCircle:
    """The closed theta-circle at a fixed x index."""
    x_index: int


@dataclass(frozen=True)
class NodePath:
    """Closed polyline through grid nodes; first node must equal the last."""
    nodes: tuple

    def __post_init__(self):
        if len(self.nodes) < 3 or self.nodes[0] != self.nodes[-1]:
            raise InvalidCycleError("node path is not a closed cycle")


def cycle_integral(phi: OneFormField, cycle, grid: Grid2D) -> float:
    """Line integral of phi along the cycle (trapezoid in the coordinates).
    The components are read through their broadcast over the grid, so the
    (nx, 1) columns of a theta-invariant form give the full-grid sums."""
    x, theta = (np.broadcast_to(c, (grid.nx, grid.ny)) for c in (phi.x, phi.theta))
    if isinstance(cycle, ThetaCircle):
        return float(np.sum(theta[cycle.x_index, :]) * grid.hy)
    if isinstance(cycle, NodePath):
        total = 0.0
        for (i0, j0), (i1, j1) in zip(cycle.nodes[:-1], cycle.nodes[1:]):
            dx = (grid.x[i1] - grid.x[i0])
            dt = (grid.theta[j1] - grid.theta[j0])
            total += 0.5 * (x[i0, j0] + x[i1, j1]) * dx
            total += 0.5 * (theta[i0, j0] + theta[i1, j1]) * dt
        return float(total)
    raise InvalidCycleError(f"unsupported cycle type {type(cycle).__name__}")


def loop_length(cycle, g: MetricField, grid: Grid2D) -> float:
    if isinstance(cycle, ThetaCircle):
        return float(np.sum(np.sqrt(g.gtt[cycle.x_index, :])) * grid.hy)
    if isinstance(cycle, NodePath):
        total = 0.0
        for (i0, j0), (i1, j1) in zip(cycle.nodes[:-1], cycle.nodes[1:]):
            dx = grid.x[i1] - grid.x[i0]
            dt = grid.theta[j1] - grid.theta[j0]
            gxx = 0.5 * (g.gxx[i0, j0] + g.gxx[i1, j1])
            gxt = 0.5 * (g.gxt[i0, j0] + g.gxt[i1, j1])
            gtt = 0.5 * (g.gtt[i0, j0] + g.gtt[i1, j1])
            total += np.sqrt(max(gxx * dx * dx + 2 * gxt * dx * dt + gtt * dt * dt, 0.0))
        return float(total)
    raise InvalidCycleError(f"unsupported cycle type {type(cycle).__name__}")


def min_circumference(g: MetricField, grid: Grid2D):
    """Shortest theta-circle: (length, argmin x index).  For a warped metric this
    is 2 pi min f.  The root is taken on the column of a warped gtt, or of a
    column state's, and summed over its broadcast to the grid, which gives
    the bits of the full-grid sum."""
    root = np.broadcast_to(np.sqrt(unbroadcast(g.gtt)), (grid.nx, grid.ny))
    lengths = np.sum(root, axis=1) * grid.hy
    i = int(np.argmin(lengths))
    return float(lengths[i]), i


# ---------------------------------------------------------------------- probes
@dataclass
class CohomologyProbe:
    """The pairing of a closed base form with a fixed homology cycle, and the
    form's initial sup norm, the denominator of the length bound.

    The pairing is computed once from the base form; shifting a theta-circle
    within the region where the form is closed must not move it (discrete
    Stokes), which `make_probe` verifies at construction.
    """
    label: str
    cycle: object
    pairing: float
    sup0: float


def closedness_residual(phi: OneFormField, grid: Grid2D) -> float:
    return float(np.max(np.abs(exterior_derivative(phi, grid))))


def make_probe(label: str, phi0: OneFormField, cycle,
               geo: MetricInvariants) -> CohomologyProbe:
    """The probe of the closed form phi0 on `cycle`, with its sup norm
    measured on the bundle's metric."""
    grid = geo.grid
    scale = max(1.0, float(np.max(np.abs(phi0.x))), float(np.max(np.abs(phi0.theta))))
    if closedness_residual(phi0, grid) > CLOSEDNESS_TOL * scale:
        raise InvalidCycleError(f"probe {label!r}: base form is not closed")
    pairing = cycle_integral(phi0, cycle, grid)
    if pairing <= 0.0:
        raise ProbeOrderError(
            f"probe {label!r} pairs to {pairing:g} <= 0; cycle class has no "
            "detectable infinite order")
    if isinstance(cycle, ThetaCircle):
        for shift in (-grid.nx // 4, grid.nx // 4):
            other = ThetaCircle((cycle.x_index + shift) % grid.nx)
            drift = abs(cycle_integral(phi0, other, grid) - pairing)
            if drift > 1e-8 * abs(pairing):
                raise InvalidCycleError(
                    f"probe {label!r}: pairing drifts by {drift:g} when the "
                    "circle is shifted; form not closed on the cylinder")
    return CohomologyProbe(label, cycle, pairing, sup_norm_form(phi0, geo))


# ---------------------------------------------------------------------- records
@dataclass
class MonitorRecord:
    t: float
    dt: float
    step: int
    sup_R: float
    min_R: float
    vol: float
    values: dict = field(default_factory=dict)
    grid_hash: str = ""

    def hypothesis_nonneg_R(self) -> bool:
        return self.min_R >= -HYPOTHESIS_TOL


@dataclass
class ReportResult:
    passed: bool
    worst_margin: float
    checked: int
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"pass": bool(self.passed), "worst_margin": float(self.worst_margin),
                "checked": int(self.checked),
                **{k: v for k, v in self.notes.items()}}


def _series(records, key):
    try:
        return np.array([r.values[key] for r in records])
    except KeyError as e:
        raise IncompleteTrajectoryError(f"missing monitor column {e.args[0]!r}")


# ---------------------------------------------------------------------- reports
def l2_monotonicity_report(traj, label: str) -> ReportResult:
    """Non-increase of the L2 norm of a tracked form on every record pair,
    with no sign condition on the curvature: in 2-D, Ric = (R/2) g turns
    d/dt |phi|^2 into -2(|d phi|^2 + |delta phi|^2) <= 0.  Tolerance 1e-8 of
    the initial value per pair; a series with no pair to check fails."""
    series = _series(traj.records, f"{label}_l2")
    tol = 1e-8 * series[0]
    worst = max([0.0, *np.diff(series)])
    checked = len(series) - 1
    return ReportResult(checked > 0 and worst <= tol, float(worst), checked,
                        {"tolerance": float(tol), "initial": float(series[0])})


def max_principle_report(traj, label: str) -> ReportResult:
    """Sup-norm non-increase of a tracked form; holds under the flow with
    bounded curvature with no sign hypothesis, tolerance 1e-8 of the initial
    value per step; a series with no step to check fails.  The series is the
    operational upper bound for the sup-norm of the cohomology class."""
    series = _series(traj.records, f"{label}_sup")
    tol = 1e-8 * series[0]
    increments = np.diff(series)
    checked = len(increments)
    worst = float(np.max(increments)) if checked else 0.0
    return ReportResult(checked > 0 and worst <= tol, worst, checked,
                        {"tolerance": float(tol), "initial": float(series[0])})


def l1_monotonicity_report(traj) -> ReportResult:
    """Accumulated mass inequality for the tracked heat subsolution:
    m(t) + int_0^t int u R dv dt' <= m(0) + tol, with the time integral by the
    trapezoid rule over records.  When R >= 0 held at every record, plain
    non-increase of m is checked as well."""
    rec = traj.records
    if not rec:
        raise IncompleteTrajectoryError("trajectory has no records")
    m = _series(rec, "u_mass")
    uR = _series(rec, "u_curv_mass")
    ts = np.array([r.t for r in rec])
    sup_R = max(abs(r.sup_R) for r in rec)
    sup_u = max(r.values.get("u_max", 0.0) for r in rec)
    dt_max = max(r.dt for r in rec)
    horizon = ts[-1] - ts[0]
    tol = 1e-6 * m[0] + 10.0 * dt_max ** 2 * horizon * sup_R * sup_u

    acc = np.concatenate([[0.0], np.cumsum(0.5 * (uR[1:] + uR[:-1]) * np.diff(ts))])
    margins = m + acc - m[0]
    worst = float(np.max(margins))
    notes = {"tolerance": float(tol), "initial_mass": float(m[0])}

    all_nonneg = all(r.hypothesis_nonneg_R() for r in rec)
    plain_ok = True
    if all_nonneg:
        plain_worst = float(np.max(np.diff(m))) if len(m) > 1 else 0.0
        plain_ok = plain_worst <= 1e-8 * m[0] + tol
        notes["plain_monotone_worst"] = plain_worst
    notes["hypothesis_held_everywhere"] = all_nonneg
    return ReportResult(worst <= tol and plain_ok, worst, len(rec), notes)


def form_energy_identity_report(traj, label: str) -> ReportResult:
    """Residual of dm/dt + 2 int |grad phi|^2 dv + int R |phi|^2 dv per record
    interval, with the rate centered between records and the right side
    trapezoid-averaged.  Returns the residual series in the notes."""
    rec = traj.records
    m = _series(rec, f"{label}_l2") ** 2
    grad = _series(rec, f"{label}_grad_energy")
    curv = _series(rec, f"{label}_curv_energy")
    ts = np.array([r.t for r in rec])
    rhs = 2.0 * grad + curv
    dts = np.diff(ts)
    if (dts <= 0).any():
        raise IncompleteTrajectoryError("records not strictly ordered in time")
    residuals = np.abs(np.diff(m) / dts + 0.5 * (rhs[1:] + rhs[:-1]))
    worst = float(np.max(residuals)) if len(residuals) else 0.0
    return ReportResult(True, worst, len(residuals),
                        {"residuals": residuals.tolist(), "initial_energy": float(m[0])})


def length_bound_report(probe: CohomologyProbe, traj) -> ReportResult:
    """Two chained facts per record: pairing <= sup|phi(t)| * L_alpha(t), and the
    uniform lower bound L_alpha(t) >= pairing / sup|phi(0)|."""
    if probe.pairing <= 0:
        raise ProbeOrderError(f"probe {probe.label!r} pairing not positive")
    rec = traj.records
    lengths = _series(rec, "L_alpha")
    sups = _series(rec, f"{probe.label}_sup")
    slack = 1e-6 * probe.pairing
    chain_margin = float(np.min(sups * lengths - probe.pairing))
    bound = probe.pairing / probe.sup0
    bound_margin = float(np.min(lengths - bound))
    passed = chain_margin >= -slack and bound_margin >= -1e-6 * bound
    return ReportResult(passed, min(chain_margin, bound_margin), len(rec),
                        {"pairing": probe.pairing, "uniform_bound": bound,
                         "chain_margin": chain_margin, "bound_margin": bound_margin})


def closedness_report(traj, label: str) -> ReportResult:
    """Tracked closed forms stay closed: residual bounded by 10x the initial
    residual, with a roundoff floor for exactly-closed initial data."""
    series = _series(traj.records, f"{label}_closedness")
    tol = max(10.0 * series[0], 1e-9)
    worst = float(np.max(series))
    return ReportResult(worst <= tol, worst, len(series),
                        {"tolerance": float(tol), "initial": float(series[0])})


def pairing_invariance_report(traj, label: str) -> ReportResult:
    series = _series(traj.records, f"{label}_pairing")
    drift = float(np.max(np.abs(series - series[0])))
    tol = 1e-6 * abs(series[0])
    return ReportResult(drift <= tol, drift, len(series),
                        {"tolerance": float(tol), "initial": float(series[0])})


def gauge_report(traj) -> ReportResult:
    """Sup distance between the directly evolved form and the gauge-potential
    representative phi0 + dF."""
    series = _series(traj.records, "gauge_gap")
    tol = 1e-4
    worst = float(np.max(series))
    return ReportResult(worst <= tol, worst, len(series),
                        {"tolerance": tol})


# ---------------------------------------------------------------------- cutoff
def cutoff_eta(grid: Grid2D, g: MetricField, r: float) -> np.ndarray:
    """Cutoff profile in the metric distance from the grid origin: 1 inside
    radius r, 0 outside 2r, quadratic ((2r - d)/r)^2 in between.  The profile
    attains the gradient bound |grad eta|^2 <= 4 eta / r^2 with equality on
    the ramp."""
    if r <= 0:
        raise ValueError("cutoff radius must be positive")
    d = distance_field(g, grid)
    reach = float(np.max(d))
    if 2.0 * r > reach:
        raise DomainTooSmallError(
            f"cutoff needs distance 2r = {2 * r:g} inside the domain, have {reach:g}")
    ramp = ((2.0 * r - d) / r) ** 2
    return np.where(d <= r, 1.0, np.where(d >= 2.0 * r, 0.0, ramp))


def cutoff_gradient_margin(eta: np.ndarray, g: MetricField, grid: Grid2D,
                           r: float) -> float:
    """max over grid edges of |grad eta|^2_g - 4 eta / r^2 (should be <= ~0).

    The gradient is the two-point edge difference against the metric edge
    length, with eta averaged over the edge; that is the discrete object the
    truncation argument integrates by parts, and for the quadratic-ramp
    profile it satisfies the bound exactly, kink edges included."""
    d = distance_field(g, grid)
    worst = -np.inf
    for axis in (0, 1):
        dv = np.diff(eta, axis=axis)
        dd = np.diff(d, axis=axis)
        mean = 0.5 * (eta + np.roll(eta, -1, axis))[
            (slice(0, -1), slice(None)) if axis == 0 else (slice(None), slice(0, -1))]
        safe = np.abs(dd) > 1e-300
        slope_sq = np.zeros_like(dv)
        slope_sq[safe] = (dv[safe] / dd[safe]) ** 2
        worst = max(worst, float(np.max(slope_sq - 4.0 * mean / r ** 2)))
    return worst
