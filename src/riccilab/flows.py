"""Coupled time integration: Ricci flow on the metric, Hodge heat flow on tracked
1-forms, gauge diffusion, and the scalar heat subsolution.

The whole state advances through one explicit Runge-Kutta tableau, so form and
scalar stages see exactly the metric of the matching stage.  Tagged metrics
evolve through their reduced equations (conformal: du/dt = e^{-2u} Lap0 u;
warped: dh/dt = -K h, df/dt = -K f with the reduced Gauss curvature K), which
keeps the parameterization exact; the general component path is available for
cross-checks.  Blow-up is a terminal status, never an exception: the last
valid state and the full monitor history are always returned, also when a
stage metric fails its SPD check.

Each metric is measured once.  Every RK stage builds one MetricInvariants
bundle (det g, sqrt(det g), the inverse and the SPD check) and hands it to
each operator of that stage; the CFL reuses the bundle of stage 1, which is the
state's own metric, and so does the monitor record of that state.  The CFL's
sup |R| is taken from stage 1 too, before the frozen-node zeroing: on the
reduced conformal path R = -2 du/dt, on the warped path R = 2K, otherwise the
stage's curvature bundle; with the metric frozen R is constant and computed
once.  Metric arrays are never mutated in place, so states and stage vectors
share them freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetricError
from .functionals import (MonitorRecord, closedness_residual, cycle_integral,
                          integrate, l2_norm_form, min_circumference,
                          sup_norm_form)
from .geometry import (CONFORMAL, WARPED, CurvatureData, Grid2D, MetricField,
                       MetricInvariants, OneFormField, ScalarField,
                       codifferential, conformal_metric, flat_laplacian,
                       general_metric, grad_norm_sq, hodge_laplacian,
                       laplace_beltrami, stage_curvature,
                       warped_gauss_curvature, warped_metric)

DT_UNDERFLOW = 1e-12

COMPLETED = "completed"
BLOWUP = "blow-up-detected"
BUDGET = "budget-exhausted"
BUFFER_BREACH = "buffer-breach"


@dataclass
class IntegratorSpec:
    scheme: str = "rk2"          # rk2 (Heun) or rk4 (classic)
    cfl: float = 0.2
    dt_cap: float = math.inf
    t_final: float = 1.0
    max_steps: int = 1_000_000
    cadence: int = 10            # monitor record every this many steps
    snapshot_every: int = 0      # snapshot every this many records (0 = auto)

    def validate(self) -> list:
        problems = []
        if self.scheme not in ("rk2", "rk4"):
            problems.append(f"unknown integrator scheme {self.scheme!r}")
        if not (0.0 < self.cfl <= 0.5):
            problems.append("cfl coefficient must lie in (0, 0.5]")
        if self.dt_cap <= 0:
            problems.append("dt cap must be positive")
        if self.t_final <= 0:
            problems.append("final time must be positive")
        if self.cadence < 1:
            problems.append("cadence must be >= 1")
        if self.max_steps < 0:
            problems.append("max_steps must be >= 0")
        if self.snapshot_every < 0:
            problems.append("snapshot_every must be >= 0 (0 = auto)")
        return problems


@dataclass
class FlowState:
    t: float
    grid: Grid2D
    metric: MetricField
    forms: dict = field(default_factory=dict)      # label -> OneFormField
    gauge: ScalarField | None = None
    subsolution: ScalarField | None = None
    step: int = 0
    t_max: float = math.inf

    def copy(self) -> "FlowState":
        return FlowState(
            self.t, self.grid, self.metric.copy(),
            {k: v.copy() for k, v in self.forms.items()},
            None if self.gauge is None else self.gauge.copy(),
            None if self.subsolution is None else self.subsolution.copy(),
            self.step, self.t_max,
        )


@dataclass
class FlowProblem:
    """Static configuration the stepper needs besides the state itself."""

    grid: Grid2D
    evolve_metric: bool = True
    metric_path: str = "auto"          # reduced equations for tagged metrics, or "general"
    form_operator: str = "dd"          # factorized Hodge operator; "bochner" to verify
    gauge_base: OneFormField | None = None
    gauge_label: str | None = None     # form the gauge representative is compared to
    sink: float = 0.0                  # optional -c u term on the subsolution
    probes: dict = field(default_factory=dict)   # form label -> CohomologyProbe
    buffer_threshold: float = 1e-6
    monitor_energy: bool = True
    track_circumference: bool = False
    buffer_baseline: dict = field(default_factory=dict)


# ----------------------------------------------------------------- state vector
def _pack(state: FlowState) -> dict:
    """The state's arrays by name, not copied: stages only read them and every
    stage writes new arrays."""
    vec = {}
    g = state.metric
    if g.tag == CONFORMAL:
        vec["metric.u"] = g.u
    elif g.tag == WARPED:
        vec["metric.h"] = g.h
        vec["metric.f"] = g.f
    else:
        vec["metric.gxx"] = g.gxx
        vec["metric.gxt"] = g.gxt
        vec["metric.gtt"] = g.gtt
    for label, phi in state.forms.items():
        vec[f"form.{label}.x"] = phi.x
        vec[f"form.{label}.t"] = phi.theta
    if state.gauge is not None:
        vec["gauge.F"] = state.gauge.values
    if state.subsolution is not None:
        vec["sub.u"] = state.subsolution.values
    return vec


def _metric_from_vec(vec: dict, grid: Grid2D, tag: str) -> MetricField:
    if tag == CONFORMAL:
        return conformal_metric(grid, vec["metric.u"])
    if tag == WARPED:
        return warped_metric(grid, vec["metric.h"], vec["metric.f"])
    return general_metric(vec["metric.gxx"], vec["metric.gxt"], vec["metric.gtt"])


def _unpack(vec: dict, template: FlowState) -> FlowState:
    st = FlowState(template.t, template.grid,
                   _metric_from_vec(vec, template.grid, template.metric.tag),
                   {}, None, None, template.step, template.t_max)
    for label, phi in template.forms.items():
        st.forms[label] = OneFormField(vec[f"form.{label}.x"], vec[f"form.{label}.t"],
                                       closed=phi.closed)
    if template.gauge is not None:
        st.gauge = ScalarField(vec["gauge.F"], role="gauge")
    if template.subsolution is not None:
        st.subsolution = ScalarField(vec["sub.u"], role="subsolution")
    return st


def _axpy(y: dict, a: float, k: dict) -> dict:
    """y + a k, written into the a k temporary (IEEE + commutes)."""
    out = {}
    for key in y:
        out[key] = a * k[key]
        out[key] += y[key]
    return out


# ----------------------------------------------------------------- right-hand side
def _rhs(vec: dict, template: FlowState, problem: FlowProblem,
         geo: MetricInvariants | None = None, with_sup_R: bool = False):
    """Rates of every tracked equation at one stage, and sup |R| of the stage
    metric when `with_sup_R` (None if no equation evaluated the curvature).
    `geo` is the stage metric's invariant bundle when the caller has it;
    otherwise the metric is built from `vec`, only if some equation needs it."""
    grid = problem.grid
    tag = template.metric.tag
    out = {}
    sup_R = None

    # the metric object and curvature bundle are built only if some equation
    # actually needs them; the reduced conformal path runs on u alone
    curv = None
    needs_metric = (bool(template.forms) or template.gauge is not None
                    or template.subsolution is not None)
    reduced = problem.metric_path != "general" and tag in (CONFORMAL, WARPED)
    needs_curv = (problem.evolve_metric and not reduced) \
        or (bool(template.forms) and problem.form_operator == "bochner")
    if (needs_metric or needs_curv) and geo is None:
        geo = MetricInvariants(_metric_from_vec(vec, grid, tag))
    g = geo.metric if geo is not None else None
    if needs_curv:
        curv = stage_curvature(g, grid, problem.metric_path, geo)

    if problem.evolve_metric:
        # R = -2 du/dt and R = 2K exactly (power-of-two factors), so sup |R| is
        # bitwise max |reduced_scalar_curvature|
        if tag == CONFORMAL:
            if reduced:
                rate = -2.0 * vec["metric.u"]       # e^{-2u} Lap0 u
                np.exp(rate, out=rate)
                rate *= flat_laplacian(vec["metric.u"], grid)
                if with_sup_R:
                    sup_R = 2.0 * float(np.max(np.abs(rate)))
                out["metric.u"] = rate
            else:
                out["metric.u"] = -0.5 * curv.scalar
        elif tag == WARPED:
            h, f = vec["metric.h"], vec["metric.f"]
            # dg/dt = -2 K g componentwise in 2-D, so the profiles obey
            # dh/dt = -K h and df/dt = -K f with the stage Gauss curvature
            if reduced:
                gauss = warped_gauss_curvature(h, f, grid)
                if with_sup_R:
                    sup_R = 2.0 * float(np.max(np.abs(gauss)))
            else:
                gauss = 0.5 * curv.scalar[:, 0]
            out["metric.h"] = -gauss * h
            out["metric.f"] = -gauss * f
        else:
            out["metric.gxx"] = -2.0 * curv.ricci_xx
            out["metric.gxt"] = -2.0 * curv.ricci_xt
            out["metric.gtt"] = -2.0 * curv.ricci_tt
        if with_sup_R and not reduced:
            sup_R = curv.sup_scalar()
    else:
        for key in vec:
            if key.startswith("metric."):
                out[key] = np.zeros_like(vec[key])

    for label in template.forms:
        phi = OneFormField(vec[f"form.{label}.x"], vec[f"form.{label}.t"])
        lap = hodge_laplacian(phi, g, grid, method=problem.form_operator, curv=curv,
                              invariants=geo)
        out[f"form.{label}.x"] = lap.x
        out[f"form.{label}.t"] = lap.theta

    if template.gauge is not None:
        source = codifferential(problem.gauge_base, g, grid, geo).values
        rate = laplace_beltrami(vec["gauge.F"], g, grid, geo)
        rate -= source
        out["gauge.F"] = rate

    if template.subsolution is not None:
        u = vec["sub.u"]
        rate = laplace_beltrami(u, g, grid, geo)
        rate -= problem.sink * u
        out["sub.u"] = rate

    frozen = grid.boundary_mask
    if frozen.any():
        for arr in out.values():
            if arr.ndim == 2:
                arr[frozen] = 0.0
            else:
                arr[0] = 0.0
                arr[-1] = 0.0
    return out, sup_R


# ----------------------------------------------------------------- CFL control
def diffusion_rate(g: MetricField, grid: Grid2D, sup_R: float,
                   invariants: MetricInvariants | None = None) -> float:
    """Worst-node parabolic rate: inverse-metric magnitudes against the grid
    spacings plus the curvature scale."""
    ixx, ixt, itt = (invariants or MetricInvariants(g)).inv
    rate = np.max(ixx) / grid.hx ** 2 + np.max(itt) / grid.hy ** 2
    cross = float(np.max(np.abs(ixt)))
    if cross > 0:
        rate += 2.0 * cross / (grid.hx * grid.hy)
    return float(rate) + abs(sup_R)


def cfl_dt(state: FlowState, spec: IntegratorSpec, sup_R: float | None = None,
           invariants: MetricInvariants | None = None) -> float:
    """dt = 2 c_cfl / rate, capped.  On a flat unit metric with equal spacing h
    this is exactly c_cfl h^2; it shrinks as the inverse metric or the
    curvature grows."""
    geo = invariants or MetricInvariants(state.metric)
    if sup_R is None:
        sup_R = stage_curvature(state.metric, state.grid, "auto", geo).sup_scalar()
    rate = diffusion_rate(state.metric, state.grid, sup_R, geo)
    return min(2.0 * spec.cfl / rate, spec.dt_cap)


# ----------------------------------------------------------------- steppers
def _advance(vec: dict, k1: dict, template: FlowState, problem: FlowProblem,
             dt: float, scheme: str, frozen: MetricInvariants | None) -> dict:
    """The step from the stage-1 rates k1.  `frozen` is the state's bundle when
    the metric does not evolve, so later stages reuse it."""
    def rhs(v):
        return _rhs(v, template, problem, frozen)[0]

    if scheme == "rk2":   # Heun: vec + 0.5 dt (k1 + k2), accumulated in k2
        k2 = rhs(_axpy(vec, dt, k1))
        for key in vec:
            k2[key] += k1[key]
            k2[key] *= 0.5 * dt
            k2[key] += vec[key]
        return k2
    if scheme == "rk4":
        k2 = rhs(_axpy(vec, 0.5 * dt, k1))
        k3 = rhs(_axpy(vec, 0.5 * dt, k2))
        k4 = rhs(_axpy(vec, dt, k3))
        return {key: vec[key] + (dt / 6.0) * (k1[key] + 2 * k2[key] + 2 * k3[key] + k4[key])
                for key in vec}
    raise ValueError(f"unknown scheme {scheme!r}")


def _vec_healthy(vec: dict, template: FlowState, grid: Grid2D) -> bool:
    for arr in vec.values():
        if not np.all(np.isfinite(arr)):
            return False
    tag = template.metric.tag
    if tag == CONFORMAL:        # positive while finite; run_flow checks the det floor
        return True
    if tag == WARPED:
        return float(np.min(vec["metric.h"] * vec["metric.f"])) > 1e-6
    return not _metric_from_vec(vec, grid, tag).is_degenerate()


@np.errstate(over="ignore", invalid="ignore")   # blow-up shows up as None
def flow_step(state: FlowState, dt: float, problem: FlowProblem,
              scheme: str = "rk2", k1: dict | None = None,
              invariants: MetricInvariants | None = None) -> FlowState | None:
    """One coupled step of every tracked equation.  Returns None when a stage
    metric failed its SPD check or the step left the state non-finite or the
    metric degenerate (blow-up).  `k1` are the stage-1 rates and `invariants`
    the bundle of state.metric when the caller already has them."""
    vec = _pack(state)
    try:
        if not problem.evolve_metric and invariants is None:
            invariants = MetricInvariants(state.metric)     # every stage reuses it
        if k1 is None:
            k1 = _rhs(vec, state, problem, invariants)[0]
        new_vec = _advance(vec, k1, state, problem, dt, scheme,
                           None if problem.evolve_metric else invariants)
    except DegenerateMetricError:
        return None
    if not _vec_healthy(new_vec, state, state.grid):
        return None
    out = _unpack(new_vec, state)
    out.t = state.t + dt
    out.step = state.step + 1
    return out


# Single-system entry points: the same coupled stepper with only the relevant
# subsystems active.  Untouched fields are carried through unchanged.
def ricci_flow_step(state: FlowState, dt: float, metric_path: str = "auto",
                    scheme: str = "rk2") -> FlowState | None:
    bare = FlowState(state.t, state.grid, state.metric, {}, None, None,
                     state.step, state.t_max)
    out = flow_step(bare, dt, FlowProblem(state.grid, metric_path=metric_path), scheme)
    if out is not None:
        out.forms = {k: v.copy() for k, v in state.forms.items()}
        out.gauge = state.gauge
        out.subsolution = state.subsolution
    return out


def form_heat_step(state: FlowState, dt: float, operator: str = "dd",
                   evolve_metric: bool = True, scheme: str = "rk2") -> FlowState | None:
    bare = FlowState(state.t, state.grid, state.metric, state.forms, None, None,
                     state.step, state.t_max)
    problem = FlowProblem(state.grid, evolve_metric=evolve_metric,
                          form_operator=operator)
    out = flow_step(bare, dt, problem, scheme)
    if out is not None:
        out.gauge = state.gauge
        out.subsolution = state.subsolution
    return out


def gauge_diffusion_step(state: FlowState, dt: float, base: OneFormField,
                         evolve_metric: bool = True, operator: str = "dd",
                         scheme: str = "rk2") -> FlowState | None:
    problem = FlowProblem(state.grid, evolve_metric=evolve_metric,
                          form_operator=operator, gauge_base=base)
    return flow_step(state, dt, problem, scheme)


def scalar_heat_step(state: FlowState, dt: float, sink: float = 0.0,
                     evolve_metric: bool = True, scheme: str = "rk2") -> FlowState | None:
    bare = FlowState(state.t, state.grid, state.metric, {}, None,
                     state.subsolution, state.step, state.t_max)
    problem = FlowProblem(state.grid, evolve_metric=evolve_metric, sink=sink)
    out = flow_step(bare, dt, problem, scheme)
    if out is not None:
        out.forms = {k: v.copy() for k, v in state.forms.items()}
        out.gauge = state.gauge
    return out


# ----------------------------------------------------------------- monitoring
def monitor_record(state: FlowState, problem: FlowProblem, dt: float,
                   curv: CurvatureData,
                   invariants: MetricInvariants | None = None) -> MonitorRecord:
    grid, g = state.grid, state.metric
    geo = invariants or MetricInvariants(g)
    vol = integrate(np.ones_like(g.gxx), g, grid, geo)
    values: dict = {}

    for label, phi in state.forms.items():
        values[f"{label}_l2"] = l2_norm_form(phi, g, grid, geo)
        values[f"{label}_sup"] = sup_norm_form(phi, g, grid, geo)
        values[f"{label}_closedness"] = closedness_residual(phi, grid)
        if problem.monitor_energy:
            values[f"{label}_grad_energy"] = integrate(
                grad_norm_sq(phi, g, grid, curv, geo), g, grid, geo)
            values[f"{label}_curv_energy"] = integrate(
                curv.scalar * phi.norm_sq(g, geo), g, grid, geo)
        probe = problem.probes.get(label)
        if probe is not None:
            values[f"{label}_pairing"] = cycle_integral(phi, probe.cycle, grid)

    if problem.track_circumference:
        length, i = min_circumference(g, grid)
        values["L_alpha"] = length
        values["L_alpha_argmin"] = float(i)

    if state.gauge is not None and problem.gauge_base is not None \
            and problem.gauge_label in state.forms:
        base = problem.gauge_base
        rep_x = base.x + grid.diff_x(state.gauge.values)
        rep_t = base.theta + grid.diff_t(state.gauge.values)
        phi = state.forms[problem.gauge_label]
        values["gauge_gap"] = max(float(np.max(np.abs(phi.x - rep_x))),
                                  float(np.max(np.abs(phi.theta - rep_t))))

    if state.subsolution is not None:
        u = state.subsolution.values
        clipped = np.clip(u, 0.0, None)
        values["u_mass"] = integrate(clipped, g, grid, geo)
        values["u_min"] = float(np.min(u))
        values["u_max"] = float(np.max(u))
        values["u_curv_mass"] = integrate(clipped * curv.scalar, g, grid, geo)

    if problem.buffer_baseline:
        mask = problem.buffer_baseline["mask"]
        flux = float(np.max(np.abs(curv.scalar[mask] - problem.buffer_baseline["R0"])))
        for label, phi in state.forms.items():
            nsq0 = problem.buffer_baseline["form0"].get(label)
            if nsq0 is not None:
                flux = max(flux, float(np.max(np.abs(phi.norm_sq(g, geo)[mask] - nsq0))))
        values["buffer_flux"] = flux

    return MonitorRecord(
        t=state.t, dt=dt, step=state.step,
        sup_R=float(np.max(curv.scalar)), min_R=float(np.min(curv.scalar)),
        vol=vol, values=values, grid_hash=grid.hash_hex,
    )


@dataclass
class Trajectory:
    grid: Grid2D
    records: list
    snapshots: list
    status: str
    t_end: float
    n_steps: int
    scenario_name: str = ""
    scenario_hash: str = ""
    monitor_labels: list = field(default_factory=list)

    @property
    def grid_hash(self) -> str:
        return self.grid.hash_hex


@np.errstate(over="ignore", invalid="ignore")   # blow-up shows up as a status
def run_flow(scenario_or_setup, collect_snapshots: bool = True) -> Trajectory:
    """Integrate a scenario until its horizon, blow-up, a buffer breach, or the
    step budget.  Record 0 is the initial state; the terminal (or last valid)
    state is always recorded.  Deterministic for a fixed scenario."""
    from .scenario import ScenarioSpec, build   # deferred: scenario builds on flows

    setup = build(scenario_or_setup) if isinstance(scenario_or_setup, ScenarioSpec) \
        else scenario_or_setup
    state, problem, spec = setup.state.copy(), setup.problem, setup.integrator
    grid = problem.grid

    if spec.max_steps <= 0:
        return Trajectory(grid, [], [], BUDGET, state.t, 0,
                          setup.name, setup.scenario_hash)

    geo = MetricInvariants(state.metric)    # bundle of the current state's metric
    curv = stage_curvature(state.metric, grid, problem.metric_path, geo)
    sup_R0 = curv.sup_scalar()              # constant while the metric is frozen
    if grid.boundary_mask.any():
        mask = grid.buffer_mask()
        problem.buffer_baseline = {
            "mask": mask,
            "R0": curv.scalar[mask].copy(),
            "form0": {label: phi.norm_sq(state.metric, geo)[mask].copy()
                      for label, phi in state.forms.items()},
        }

    records: list[MonitorRecord] = []
    snapshots: list[FlowState] = []

    dt0 = cfl_dt(state, spec, sup_R=sup_R0, invariants=geo)
    snap_every = spec.snapshot_every
    if snap_every == 0:
        est_records = min(spec.max_steps, int(spec.t_final / max(dt0, 1e-300)) + 1) \
            // spec.cadence + 2
        snap_every = max(1, est_records // 24)

    def record_state(dt_used, geo_now, curv_now=None):
        c = curv_now if curv_now is not None \
            else stage_curvature(state.metric, grid, problem.metric_path, geo_now)
        rec = monitor_record(state, problem, dt_used, c, geo_now)
        records.append(rec)
        if collect_snapshots and (len(records) - 1) % snap_every == 0:
            snapshots.append(state.copy())
        flux = rec.values.get("buffer_flux", 0.0)
        return flux > problem.buffer_threshold

    status = COMPLETED
    if record_state(dt0, geo, curv):
        status = BUFFER_BREACH

    horizon = spec.t_final * (1.0 - 1e-12)
    while status == COMPLETED and state.t < horizon:
        if state.step >= spec.max_steps:
            status = BUDGET
            break
        # stage 1 of the step, evaluated first for the sup |R| the CFL needs
        k1, sup_R = _rhs(_pack(state), state, problem, geo,
                         with_sup_R=problem.evolve_metric)
        dt_stable = cfl_dt(state, spec, sup_R=sup_R0 if sup_R is None else sup_R,
                           invariants=geo)
        if dt_stable < DT_UNDERFLOW:
            status = BLOWUP
            break
        dt = min(dt_stable, spec.t_final - state.t)
        new_state = flow_step(state, dt, problem, spec.scheme, k1=k1, invariants=geo)
        if new_state is None:
            status = BLOWUP
            break
        try:
            # the new state's bundle, read by its record or by the next stage 1;
            # a metric failing its SPD check ends the run on the last valid state
            new_geo = MetricInvariants(new_state.metric)
        except DegenerateMetricError:
            status = BLOWUP
            break
        state, geo = new_state, new_geo
        done = state.t >= horizon or state.step >= spec.max_steps
        if state.step % spec.cadence == 0 or done:
            if record_state(dt, geo):
                status = BUFFER_BREACH

    if records and records[-1].step != state.step:
        record_state(records[-1].dt, geo)
    if collect_snapshots and (not snapshots or snapshots[-1].step != state.step):
        snapshots.append(state.copy())

    labels = list(records[0].values.keys()) if records else []
    return Trajectory(grid, records, snapshots, status, state.t, state.step,
                      setup.name, setup.scenario_hash, labels)
