"""Coupled time integration: Ricci flow on the metric, Hodge heat flow on tracked
1-forms, gauge diffusion, and the scalar heat subsolution.

The whole state advances through one explicit Runge-Kutta tableau, so form and
scalar stages see exactly the metric of the matching stage.  The metric's tag
fixes its one rate: tagged metrics evolve through their reduced equations
(conformal: du/dt = e^{-2u} Lap0 u; warped: dh/dt = -K h, df/dt = -K f with
the reduced Gauss curvature K), which keeps the parameterization exact, and a
general metric by dg/dt = -2 Ric; the general-tagged copy of a tagged metric
is its cross-check.  Blow-up is a terminal status, never an exception: the
last valid state and the full monitor history are always returned, also when
a stage metric or a new state's metric fails its SPD check.

Each metric is measured once.  Every RK stage that reads its metric builds one
MetricInvariants bundle and hands it to each operator of that stage as its
one geometry argument; the bundle SPD-checks the metric on construction and
computes sqrt(det g), the inverse, the Christoffel symbols and the curvature
only when an operator first reads them.  A new state's metric is checked
right after its step, by its own bundle, which the state's monitor record
and stage 1 of the next step share, or on a conformal metric by
require_conformal_spd on u, the same predicate.  So a conformal run builds a
state's metric and bundle only where one is read (a record, a snapshot, the
final state, or stage 1 of a run with forms, gauge or subsolution), and
between records run_flow carries the state vector alone.  The CFL bounds are
taken from stage 1, before the frozen-node zeroing: sup |R| from
R = -2 du/dt, R = 2K or the bundle's scalar curvature, the inverse metric
from the bundle or, on a conformal metric, from g^xx = g^tt = e^{-2u}, read
off the rate before its multiply.  Metric arrays are never mutated in place,
so states and stage vectors share them freely.

The state is one contiguous float64 vector with one StateLayout: the metric
parameters, then each form's two components, then the gauge potential and the
subsolution.  A state's arrays are views into its vector, so every RK stage
combination, the frozen-node zeroing and the finiteness check are single
vector expressions, and a snapshot is that vector's bytes in layout order.
run_flow spills each snapshot's vector to one unlinked temporary file as it
is taken (SpilledSnapshots), so a run holds no snapshot fields in memory; a
reloaded run's snapshots are the same sequence over its data file's bytes.

A state steps reduced by a bitwise symmetry it has (_reduce decides,
comparing bits, so +0.0 and -0.0 differ) to one window of the full grid,
which its StateLayout holds.  A theta-invariant state on a periodic theta
axis steps as its (nx, 1) columns, through broadcasting: Grid2D.diff_t of a
length-1 last axis is the full-grid stencil's value at every node, and every
other operation acts node by node, so the state keeps the full grid's bits.
Its records are taken on the columns too: maxima and minima give the full
grid's bits, and integrals sum the first column times ny (integrate), within
a few ulp of the full-grid sums.
A metric-only conformal state whose u is even about the center node of a
truncated axis steps as the half of that axis from the center on (the
cigar's quadrant): centered differences turn even into odd and back exactly,
the one-sided closures mirror each other with the sign flipped, and the rest
acts node by node, so Grid2D.diff2_half takes each halved axis's second
difference on the half.  Where that u equals its transpose bit for bit on
alike axes, d_t d_t u is (d_x d_x u).T bit for bit, so the rate adds a copy
of that transpose to d_x d_x u, and every stage keeps the symmetry node by
node.  Records read the stepped state with its halved axes unfolded.
Snapshots are spilled and written to the run's one data file as stepped,
columns and quadrants alike, reloaded as stepped, and read widened to the
full grid.
"""

from __future__ import annotations

import math
import tempfile
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateMetricError
from .functionals import (MonitorRecord, closedness_residual, cycle_integral,
                          integrate, min_circumference)
from .geometry import (CONFORMAL, GENERAL, PERIODIC, TRUNCATED, WARPED, Grid2D,
                       MetricField, MetricInvariants, OneFormField, codifferential,
                       conformal_metric, general_metric, grad_norm_sq,
                       hodge_laplacian, laplace_beltrami, require_conformal_spd,
                       unbroadcast, warped_gauss_curvature, warped_metric)

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
        """Every problem found; each comparison is written so that NaN fails."""
        problems = []
        if self.scheme not in ("rk2", "rk4"):
            problems.append(f"unknown integrator scheme {self.scheme!r}")
        if not (0.0 < self.cfl <= 0.5):
            problems.append("cfl coefficient must lie in (0, 0.5]")
        if not self.dt_cap > 0:
            problems.append("dt cap must be positive")
        if not self.t_final > 0:
            problems.append("final time must be positive")
        if not self.cadence >= 1:
            problems.append("cadence must be >= 1")
        if not self.max_steps >= 0:
            problems.append("max_steps must be >= 0")
        if not self.snapshot_every >= 0:
            problems.append("snapshot_every must be >= 0 (0 = auto)")
        return problems


@dataclass
class FlowState:
    t: float
    grid: Grid2D
    metric: MetricField
    forms: dict = field(default_factory=dict)      # label -> OneFormField
    gauge: np.ndarray | None = None                # gauge potential F
    subsolution: np.ndarray | None = None          # heat subsolution u
    step: int = 0
    # set by StateLayout.unpack: every array above is a view into `vector`
    layout: StateLayout | None = field(default=None, repr=False, compare=False)
    vector: np.ndarray | None = field(default=None, repr=False, compare=False)


_METRIC_PARAMS = {CONFORMAL: ("u",), WARPED: ("h", "f"), GENERAL: ("gxx", "gxt", "gtt")}
_FULL = (slice(None), slice(None))


class StateLayout:
    """Where each field of a state sits in one flat float64 vector.

    `fields` are (name, shape, offset) in vector order, offsets in elements:
    the metric parameters of its tag (metric.u | metric.h, metric.f |
    metric.gxx, metric.gxt, metric.gtt), then form.<label>.phi_x and
    form.<label>.phi_theta per form, then gauge.F and sub.u when tracked.
    A run's snapshot index carries these names, and its data file holds
    each snapshot's vector bytes.  `window` is the one description of a
    reduction: a slice per axis of the full grid, the nodes each 2-D field
    holds.  A column's is slice(0, 1) on theta, a halved axis's
    slice(origin, None); the halved axes are those whose window starts past
    0.  `transposed`, decided with the window, says that its metric-only
    conformal u equals its transpose bit for bit, so the rate differences it
    along x alone."""

    def __init__(self, grid: Grid2D, tag: str, fields, window: tuple = _FULL,
                 transposed: bool = False):
        self.grid, self.tag, self.window, self.transposed = grid, tag, window, transposed
        self.halves = tuple(axis for axis, s in enumerate(window) if s.start)
        self.fields, self.size = [], 0
        for name, shape in fields:
            self.fields.append((name, tuple(shape), self.size))
            self.size += math.prod(shape)
        self.labels = [name[len("form."):-len(".phi_x")] for name, _, _ in self.fields
                       if name.startswith("form.") and name.endswith(".phi_x")]

    @staticmethod
    def _arrays(state: FlowState) -> list:
        g = state.metric
        arrays = [(f"metric.{p}", getattr(g, p)) for p in _METRIC_PARAMS[g.tag]]
        for label, phi in state.forms.items():
            arrays += [(f"form.{label}.phi_x", phi.x),
                       (f"form.{label}.phi_theta", phi.theta)]
        if state.gauge is not None:
            arrays.append(("gauge.F", state.gauge))
        if state.subsolution is not None:
            arrays.append(("sub.u", state.subsolution))
        return arrays

    def mirrored(self, a: np.ndarray) -> np.ndarray:
        """The 2-D field `a` of this layout unfolded to the full grid's: its
        mirror image about the origin, a[:0:-1], put before each halved axis."""
        for axis in self.halves:
            a = np.concatenate([a[(slice(None),) * axis + (slice(None, 0, -1),)], a], axis)
        return a

    @cached_property
    def full(self) -> "StateLayout":
        """The full grid's layout of the same fields."""
        plane = (self.grid.nx, self.grid.ny)
        return StateLayout(self.grid, self.tag, [(name, plane if len(shape) == 2 else shape)
                                                 for name, shape, _ in self.fields])

    def widen(self, vec: np.ndarray):
        """A reduced layout's full layout, and `vec` in it, bit for bit: each
        halved axis unfolded, each column repeated over theta, written once
        into one new vector.  A full layout is its own, with `vec` itself."""
        if self.window == _FULL:
            return self, vec
        wide = self.full
        out = np.empty(wide.size)
        for (_, shape, offset), (_, to, at) in zip(self.fields, wide.fields):
            a = vec[offset:offset + math.prod(shape)].reshape(shape)
            out[at:at + math.prod(to)].reshape(to)[...] = self.mirrored(a) if a.ndim == 2 else a
        return wide, out

    def parts(self, vec: np.ndarray):
        """Views into `vec`: the metric parameters in tag order, the forms by
        label, and the gauge and subsolution values (None when untracked)."""
        v = {name: vec[o:o + math.prod(s)].reshape(s) for name, s, o in self.fields}
        forms = {label: OneFormField(v[f"form.{label}.phi_x"], v[f"form.{label}.phi_theta"])
                 for label in self.labels}
        return ([v[f"metric.{p}"] for p in _METRIC_PARAMS[self.tag]], forms,
                v.get("gauge.F"), v.get("sub.u"))

    def metric(self, params) -> MetricField:
        """The metric of its parameters, through the per-tag constructor."""
        if self.tag == CONFORMAL:
            return conformal_metric(self.grid, *params)
        if self.tag == WARPED:    # broadcast as wide as the window on theta
            return warped_metric(self.grid, *params,
                                 width=len(range(self.grid.ny)[self.window[1]]))
        return general_metric(*params)

    def unpack(self, vec: np.ndarray, t: float = 0.0, step: int = 0) -> FlowState:
        params, forms, gauge, sub = self.parts(vec)
        return FlowState(t, self.grid, self.metric(params), forms, gauge, sub,
                         step, self, vec)

    @cached_property
    def frozen(self) -> np.ndarray:
        """Indices of the nodes flows hold fixed: grid.boundary_mask, cut to
        the layout's window, on 2-D fields and both end nodes of 1-D warped
        profiles, none without a truncated axis."""
        boundary = self.grid.boundary_mask[self.window]
        mask = np.zeros(self.size, dtype=bool)
        if boundary.any():
            for _, shape, offset in self.fields:
                nodes = mask[offset:offset + math.prod(shape)].reshape(shape)
                if len(shape) == 2:
                    nodes[boundary] = True
                else:
                    nodes[[0, -1]] = True
        return np.flatnonzero(mask)


@dataclass(kw_only=True)
class FlowProblem:
    """Static configuration the stepper needs besides the state itself; the
    grid is the state's."""

    gauge_base: OneFormField | None = None
    gauge_label: str | None = None     # form the gauge representative is compared to
    sink: float = 0.0                  # optional -c u term on the subsolution
    probes: dict = field(default_factory=dict)   # form label -> CohomologyProbe
    buffer_threshold: float = 1e-6
    monitor_energy: bool = True


# ----------------------------------------------------------------- right-hand side
def _rhs(vec: np.ndarray, layout: StateLayout, problem: FlowProblem,
         geo: MetricInvariants | None = None, with_cfl: bool = False):
    """Rates of every tracked equation at one stage, as one vector in the
    layout of `vec`, and, when `with_cfl`, the stage metric's CFL bounds
    (sup g^xx, sup |g^xt|, sup g^tt, sup |R|) (else None).  `geo` is the
    stage metric's bundle when the caller has it; otherwise the metric and
    its bundle are built from `vec`, only if some equation or bound reads
    them."""
    grid, tag = layout.grid, layout.tag
    params, forms, gauge, sub = layout.parts(vec)
    k = np.empty(layout.size)
    k_params, k_forms, k_gauge, k_sub = layout.parts(k)
    sup_R = bounds = None

    # the conformal flow and its CFL bounds run on u alone, the warped flow
    # on h and f and its bounds on the bundle's inverse
    needs_metric = bool(forms) or gauge is not None or sub is not None \
        or tag == GENERAL or (with_cfl and tag == WARPED)
    if needs_metric and geo is None:
        geo = MetricInvariants(layout.metric(params), grid)

    # R = -2 du/dt and R = 2K exactly (power-of-two factors), so sup |R| is
    # bitwise max |reduced_scalar_curvature|
    if tag == CONFORMAL:
        (u,), (rate,) = params, k_params
        np.multiply(u, -2.0, out=rate)     # e^{-2u} Lap0 u
        np.exp(rate, out=rate)
        if with_cfl:                       # g^xx = g^tt = e^{-2u}
            sup_inv = np.max(rate)
        # Lap0 u = d_x d_x u + d_t d_t u, a halved axis's term taken on the
        # half; on a transposed layout d_t d_t u is (d_x d_x u).T bit for
        # bit, and IEEE addition commutes
        dd = [grid.diff2_half(u, axis) if axis in layout.halves
              else grid.diff(grid.diff(u, axis), axis)
              for axis in ((0,) if layout.transposed else (0, 1))]
        lap = dd[0].T.copy() if layout.transposed else dd[0]
        lap += dd[-1]
        rate *= lap
        if with_cfl:   # max |rate| with no temporary; NaN where a node is NaN
            sup_R = 2.0 * float(max(abs(np.max(rate)), abs(np.min(rate))))
            bounds = (sup_inv, 0.0, sup_inv, sup_R)
    elif tag == WARPED:
        # dg/dt = -2 K g componentwise in 2-D, so the profiles obey
        # dh/dt = -K h and df/dt = -K f with the stage Gauss curvature
        gauss = warped_gauss_curvature(*params, grid)
        if with_cfl:
            sup_R = 2.0 * float(np.max(np.abs(gauss)))
        for profile, rate in zip(params, k_params):
            np.multiply(-gauss, profile, out=rate)
    else:
        for ricci, rate in zip(geo.ricci, k_params):
            np.multiply(ricci, -2.0, out=rate)
        if with_cfl:
            sup_R = float(np.max(np.abs(geo.scalar)))
    if with_cfl and bounds is None:
        # a tagged metric's g^xt is -0.0, not scanned; a warped one's g^xx and
        # g^tt are scanned on their column
        ixx, ixt, itt = geo.inv
        cross = float(np.max(np.abs(ixt))) if tag == GENERAL else 0.0
        bounds = (np.max(unbroadcast(ixx)), cross, np.max(unbroadcast(itt)), sup_R)

    for label, phi in forms.items():
        lap = hodge_laplacian(phi, geo)
        k_forms[label].x[...] = lap.x
        k_forms[label].theta[...] = lap.theta

    if gauge is not None:
        source = codifferential(problem.gauge_base, geo)
        np.subtract(laplace_beltrami(gauge, geo), source, out=k_gauge)

    if sub is not None:
        np.subtract(laplace_beltrami(sub, geo), problem.sink * sub, out=k_sub)

    if layout.frozen.size:
        k[layout.frozen] = 0.0
    return k, bounds


# ----------------------------------------------------------------- CFL control
def cfl_dt(grid: Grid2D, spec: IntegratorSpec, bounds: tuple) -> float:
    """dt = 2 c_cfl / rate, capped, with the worst-node parabolic rate of the
    CFL bounds (sup g^xx, sup |g^xt|, sup g^tt, sup |R|) that _rhs reads off
    stage 1.  On a flat unit metric with equal spacing h this is exactly
    c_cfl h^2; it shrinks as the inverse metric or the curvature grows."""
    sup_xx, cross, sup_tt, sup_R = bounds
    rate = sup_xx / grid.hx ** 2 + sup_tt / grid.hy ** 2
    if cross > 0:
        rate += 2.0 * cross / (grid.hx * grid.hy)
    return min(2.0 * spec.cfl / (float(rate) + abs(sup_R)), spec.dt_cap)


# ----------------------------------------------------------------- steppers
def _advance(vec: np.ndarray, k1: np.ndarray, layout: StateLayout,
             problem: FlowProblem, dt: float, scheme: str) -> np.ndarray:
    """The new state vector from the stage-1 rates k1."""
    def rhs_at(a, k):          # rates at vec + a k, written into the a k temporary
        stage = a * k
        stage += vec
        return _rhs(stage, layout, problem)[0]

    if scheme == "rk2":   # Heun: vec + 0.5 dt (k1 + k2), accumulated in k2
        k2 = rhs_at(dt, k1)
        k2 += k1
        k2 *= 0.5 * dt
        k2 += vec
        return k2
    if scheme == "rk4":
        k2 = rhs_at(0.5 * dt, k1)
        k3 = rhs_at(0.5 * dt, k2)
        k4 = rhs_at(dt, k3)
        return vec + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    raise ValueError(f"unknown scheme {scheme!r}")


@np.errstate(over="ignore", invalid="ignore")   # blow-up shows up as None
def flow_step(vec: np.ndarray, layout: StateLayout, dt: float, problem: FlowProblem,
              scheme: str = "rk2", k1: np.ndarray | None = None) -> np.ndarray | None:
    """One coupled step of every tracked equation: the next state vector of
    the state vector `vec`, in `layout`.  Returns None (blow-up) when a stage
    metric failed its SPD check or a value of the new vector is not finite.
    A conformal u is not scanned: run_flow checks the new state's metric
    next, and require_conformal_spd fails on a NaN or infinite u.  `k1` are
    the stage-1 rates when the caller already has them."""
    try:
        if k1 is None:
            k1 = _rhs(vec, layout, problem)[0]
        new_vec = _advance(vec, k1, layout, problem, dt, scheme)
    except DegenerateMetricError:
        return None
    head = math.prod(layout.fields[0][1]) if layout.tag == CONFORMAL else 0
    if not np.isfinite(new_vec[head:]).all():
        return None
    return new_vec


# ----------------------------------------------------------------- monitoring
def monitor_record(state: FlowState, problem: FlowProblem, dt: float,
                   geo: MetricInvariants, baseline: dict | None = None) -> MonitorRecord:
    """The monitored values of one state.  `geo` is the bundle of state.metric;
    `baseline` holds the buffer-zone mask, R and |phi|^2 of the run's initial
    state when the grid has a truncated axis.  Every integral, vol included,
    goes through integrate, so a column state's are column sums."""
    grid, g = state.grid, state.metric
    vol = integrate(np.ones((1, 1)), geo)
    R = unbroadcast(geo.scalar)
    values: dict = {}
    nsq = {label: phi.norm_sq(geo) for label, phi in state.forms.items()}

    for label, phi in state.forms.items():
        values[f"{label}_l2"] = float(np.sqrt(integrate(nsq[label], geo)))
        values[f"{label}_sup"] = float(np.sqrt(np.max(nsq[label])))
        values[f"{label}_closedness"] = closedness_residual(phi, grid)
        if problem.monitor_energy:
            values[f"{label}_grad_energy"] = integrate(grad_norm_sq(phi, geo), geo)
            values[f"{label}_curv_energy"] = integrate(R * nsq[label], geo)
        probe = problem.probes.get(label)
        if probe is not None:
            values[f"{label}_pairing"] = cycle_integral(phi, probe.cycle, grid)

    if grid.is_cylinder:
        length, i = min_circumference(g, grid)
        values["L_alpha"] = length
        values["L_alpha_argmin"] = float(i)

    if state.gauge is not None and problem.gauge_base is not None \
            and problem.gauge_label in state.forms:
        base = problem.gauge_base
        rep_x = base.x + grid.diff_x(state.gauge)
        rep_t = base.theta + grid.diff_t(state.gauge)
        phi = state.forms[problem.gauge_label]
        values["gauge_gap"] = max(float(np.max(np.abs(phi.x - rep_x))),
                                  float(np.max(np.abs(phi.theta - rep_t))))

    if state.subsolution is not None:
        u = state.subsolution
        clipped = np.clip(u, 0.0, None)
        values["u_mass"] = integrate(clipped, geo)
        values["u_min"] = float(np.min(u))
        values["u_max"] = float(np.max(u))
        values["u_curv_mass"] = integrate(clipped * R, geo)

    if baseline is not None:
        mask = baseline["mask"]
        flux = float(np.max(np.abs(geo.scalar[mask] - baseline["R0"])))
        for label in state.forms:
            nsq0 = baseline["form0"].get(label)
            if nsq0 is not None:
                flux = max(flux, float(np.max(np.abs(nsq[label][mask] - nsq0))))
        values["buffer_flux"] = flux

    return MonitorRecord(
        t=state.t, dt=dt, step=state.step,
        sup_R=float(np.max(R)), min_R=float(np.min(R)),
        vol=vol, values=values, grid_hash=grid.hash_hex,
    )


class SpilledSnapshots(Sequence):
    """A run's snapshots, spilled to disk as they are taken, or reloaded.

    A run steps one StateLayout from start to end, given when this sequence
    is built, and appends the vector it steps, so a column run spills
    columns and a halved run its quadrant.  The vectors go back to back into
    one file, a temporary file unlinked when it is created unless a reload
    passes data.bin's bytes, closed when this sequence is collected:
    snapshot i starts at byte 8 i layout.size, and only each snapshot's t
    and step (`times`) stay apart.  `stepped` reads one back as it was
    appended; every item access widens that read to the full layout and
    unpacks it.  Each read is an array of its own, so a caller may write
    into one without changing the next."""

    def __init__(self, layout: StateLayout, file=None, times=()):
        self.layout = layout
        self._file = tempfile.TemporaryFile() if file is None else file
        weakref.finalize(self, self._file.close)
        self.times = list(times)  # (t, step) per snapshot

    def append(self, vec: np.ndarray, t: float, step: int) -> None:
        self._file.seek(8 * len(self) * self.layout.size)
        self._file.write(vec)
        self.times.append((t, step))

    def __len__(self) -> int:
        return len(self.times)

    def stepped(self, i: int) -> tuple:
        """(layout, vector, t, step) of snapshot i, in the layout it was
        appended in."""
        t, step = self.times[i]
        vec = np.empty(self.layout.size)
        self._file.seek(8 * (i % len(self)) * self.layout.size)
        self._file.readinto(vec)
        return self.layout, vec, t, step

    def __getitem__(self, i: int | slice) -> FlowState | list:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        layout, vec, t, step = self.stepped(i)
        layout, vec = layout.widen(vec)
        return layout.unpack(vec, t, step)


def _theta_invariant(a: np.ndarray) -> bool:
    """Every column of the 2-D `a` holds the bits of its first: compared as
    int64, so +0.0 and -0.0 differ and a NaN equals its own bits."""
    bits = np.asarray(a, np.float64).view(np.int64)
    return bool((bits == bits[:, :1]).all())


def _mirrored_axes(grid: Grid2D, u: np.ndarray) -> tuple:
    """The truncated axes whose origin is their center node (so their node
    count is odd) and about which the bits of u equal their flip, compared
    as int64 like _theta_invariant."""
    bits = np.asarray(u, np.float64).view(np.int64)
    axes = zip((grid.topology_x, grid.topology_y), (grid.nx, grid.ny), grid.origin)
    return tuple(axis for axis, (topology, n, origin) in enumerate(axes)
                 if topology == TRUNCATED and 2 * origin == n - 1
                 and (bits == np.flip(bits, axis)).all())


def _reduce(state: FlowState, problem: FlowProblem):
    """The layout and vector a run steps, and its problem, reduced by a
    bitwise symmetry of the state to one window of the full grid.  On a
    periodic theta axis, when every 2-D array of the state and of the gauge
    base form is theta-invariant, the window is the (nx, 1) columns; else
    a metric-only conformal state's runs from the origin on along its
    _mirrored_axes, transposed when u[window] equals its transpose; else it
    is the full grid.  Every 2-D array and the gauge base form are cut by
    it; the vector is the run's own."""
    arrays = StateLayout._arrays(state)
    base = problem.gauge_base
    planes = [a for _, a in arrays if a.ndim == 2]
    if base is not None:
        planes += [base.x, base.theta]
    window, transposed = _FULL, False
    if state.grid.topology_y == PERIODIC and all(map(_theta_invariant, planes)):
        window = (slice(None), slice(0, 1))
    elif state.metric.tag == CONFORMAL and len(arrays) == 1:
        grid, u = state.grid, state.metric.u
        halves = _mirrored_axes(grid, u)
        window = tuple(slice(origin, None) if axis in halves else slice(None)
                       for axis, origin in enumerate(grid.origin))
        # axes alike, one window on both (the origin acts only through it),
        # and u[window] the bits of its transpose, compared as int64
        bits = np.asarray(u[window], np.float64).view(np.int64)
        transposed = (grid.nx, grid.lx, grid.topology_x) == (grid.ny, grid.ly, grid.topology_y) \
            and window[0] == window[1] and bool((bits == bits.T).all())
    cut = [(name, a[window] if a.ndim == 2 else a) for name, a in arrays]
    layout = StateLayout(state.grid, state.metric.tag,
                         [(name, a.shape) for name, a in cut], window, transposed)
    if base is not None:
        problem = replace(problem, gauge_base=OneFormField(base.x[window], base.theta[window]))
    return layout, np.concatenate([a.ravel() for _, a in cut]), problem


@dataclass
class Trajectory:
    grid: Grid2D
    records: list
    snapshots: Sequence       # SpilledSnapshots, or [] when none were taken
    status: str
    t_end: float
    n_steps: int
    scenario_name: str = ""
    scenario_hash: str = ""
    monitor_labels: list = field(default_factory=list)


@np.errstate(over="ignore", invalid="ignore")   # blow-up shows up as a status
def run_flow(scenario_or_setup, collect_snapshots: bool = True) -> Trajectory:
    """Integrate a scenario until its horizon, blow-up, a buffer breach, or the
    step budget.  Record 0 is the initial state; the terminal (or last valid)
    state is always recorded.  An initial metric failing its SPD check ends
    blow-up-detected with no step and no record.  Deterministic for a fixed
    scenario."""
    from .scenario import ScenarioSpec, build   # deferred: scenario builds on flows

    setup = build(scenario_or_setup) if isinstance(scenario_or_setup, ScenarioSpec) \
        else scenario_or_setup
    layout, vec, problem = _reduce(setup.state, setup.problem)
    spec, grid = setup.integrator, setup.state.grid
    t, step = setup.state.t, setup.state.step

    if spec.max_steps <= 0:
        return Trajectory(grid, [], [], BUDGET, t, 0, setup.name, setup.scenario_hash)

    def unfolded() -> FlowState:
        # the state records read: (layout, vec) with its halved axes unfolded
        wide, wide_vec = layout.widen(vec) if layout.halves else (layout, vec)
        return wide.unpack(wide_vec, t, step)

    state = unfolded()
    try:
        geo = MetricInvariants(state.metric, grid)   # the current state's bundle
    except DegenerateMetricError:
        return Trajectory(grid, [], [], BLOWUP, t, 0, setup.name, setup.scenario_hash)
    baseline = None
    if grid.boundary_mask.any():
        # in the frame of the recorded state: a column, or the full grid
        mask = grid.buffer_mask()[state.layout.window]
        baseline = {"mask": mask, "R0": geo.scalar[mask],
                    "form0": {label: phi.norm_sq(geo)[mask]
                              for label, phi in state.forms.items()}}

    records: list[MonitorRecord] = []
    snapshots = SpilledSnapshots(layout) if collect_snapshots else []

    # stage 1 of the first step, evaluated first for the CFL bounds; a
    # halved layout is metric-only conformal, and its rates never read geo
    k1, bounds = _rhs(vec, layout, problem, geo, with_cfl=True)
    dt0 = cfl_dt(grid, spec, bounds)
    snap_every = spec.snapshot_every
    if snap_every == 0:
        # capped by the step budget before int(), which an infinite horizon overflows
        est_steps = min(spec.t_final / max(dt0, 1e-300), spec.max_steps)
        est_records = min(spec.max_steps, int(est_steps) + 1) // spec.cadence + 2
        snap_every = max(1, est_records // 24)

    def record_state(dt_used):
        # the loop carries the vector alone: the state and its bundle are
        # built here when the steps since the last read left them unbuilt
        nonlocal state, geo
        if state is None:
            state = unfolded()
        if geo is None:
            geo = MetricInvariants(state.metric, grid)
        rec = monitor_record(state, problem, dt_used, geo, baseline)
        records.append(rec)
        if collect_snapshots and (len(records) - 1) % snap_every == 0:
            snapshots.append(vec, t, step)
        flux = rec.values.get("buffer_flux", 0.0)
        return flux > problem.buffer_threshold

    status = COMPLETED
    if record_state(dt0):
        status = BUFFER_BREACH

    horizon = spec.t_final * (1.0 - 1e-12)
    while status == COMPLETED and t < horizon:
        if step >= spec.max_steps:
            status = BUDGET
            break
        if k1 is None:      # stage 1 of the step, evaluated first for the CFL
            k1, bounds = _rhs(vec, layout, problem, geo, with_cfl=True)
        dt_stable = cfl_dt(grid, spec, bounds)
        if dt_stable < DT_UNDERFLOW:
            status = BLOWUP
            break
        dt = min(dt_stable, spec.t_final - t)
        new_vec = flow_step(vec, layout, dt, problem, spec.scheme, k1=k1)
        if new_vec is None:
            status = BLOWUP
            break
        params = layout.parts(new_vec)[0]
        try:
            # the new state's SPD check, on u alone on a conformal metric; a
            # metric failing it ends the run on the last valid state
            if layout.tag == CONFORMAL:
                require_conformal_spd(grid, *params)
                new_geo = None
            else:
                new_geo = MetricInvariants(layout.metric(params), grid)
        except DegenerateMetricError:
            status = BLOWUP
            break
        vec, geo, state, k1 = new_vec, new_geo, None, None
        t, step = t + dt, step + 1
        done = t >= horizon or step >= spec.max_steps
        if step % spec.cadence == 0 or done:
            if record_state(dt):
                status = BUFFER_BREACH

    if records[-1].step != step:
        record_state(records[-1].dt)
    # the last record is the final state's; it took a snapshot unless its
    # index is off the snapshot cadence
    if collect_snapshots and (len(records) - 1) % snap_every:
        snapshots.append(vec, t, step)

    labels = list(records[0].values.keys())
    return Trajectory(grid, records, snapshots, status, t, step,
                      setup.name, setup.scenario_hash, labels)
