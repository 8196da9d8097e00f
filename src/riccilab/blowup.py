"""Rescaling analysis of trajectories and decay-at-infinity monitoring.

A rescaling schedule picks times t_k and positive factors lambda_k; the
rescaled metric at the base slice is lambda_k g(t_k), with flow time reindexed
as t -> t_k + t / lambda_k.  Scalar curvature scales as 1/lambda and lengths
as sqrt(lambda); both identities are asserted rather than assumed.  The
schedule's printed companion law L -> lambda L is reported alongside for
comparison, and the qualitative conclusion (lengths bounded below plus
lambda_k -> infinity forces rescaled lengths to diverge) is checked directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainTooSmallError, IncompleteTrajectoryError
from .functionals import loop_length, min_circumference
from .geometry import (Grid2D, MetricField, MetricInvariants, OneFormField,
                       distance_field, unbroadcast)


@dataclass
class RescalingSchedule:
    entries: list = field(default_factory=list)   # [(t_k, lambda_k)]

    def __post_init__(self):
        ts = [t for t, _ in self.entries]
        _require_all(ts, math.isfinite, "schedule times must be finite")
        if not all(b > a for a, b in zip(ts, ts[1:])):
            raise ValueError("schedule times must be strictly increasing")
        _require_all([lam for _, lam in self.entries], _positive,
                     "scale factors must be positive and finite")


def _positive(v: float) -> bool:
    return 0 < v < math.inf          # NaN fails


def _require_all(values, ok, message: str) -> None:
    """ValueError(message), naming the first of `values` that fails `ok`."""
    bad = [v for v in values if not ok(v)]
    if bad:
        raise ValueError(f"{message}, got {bad[0]!r}")


def _nearest(times: np.ndarray, t: float) -> int:
    """The index of the entry of `times` nearest t, the first of equals."""
    return int(np.argmin(np.abs(times - t)))


def by_curvature_schedule(traj, times) -> RescalingSchedule:
    """lambda_k = sup|R|(t_k) from the monitor record nearest t_k, the first of
    equals (the 2-D proxy for the full curvature magnitude)."""
    record_times = np.array([r.t for r in traj.records])
    entries = []
    for t in times:
        rec = traj.records[_nearest(record_times, t)]
        entries.append((t, max(abs(rec.sup_R), abs(rec.min_R))))
    return RescalingSchedule(entries)


def nearest_snapshots(traj, schedule: RescalingSchedule):
    """For each schedule entry in turn, the snapshot of `traj` nearest its
    time, the first of equals.  The times are the sequence's `times`, so a
    snapshot is read only when the caller reaches it."""
    snap_times = np.array([t for t, _ in traj.snapshots.times])
    for t, _ in schedule.entries:
        yield traj.snapshots[_nearest(snap_times, t)]


def scaling_laws(g: MetricField, grid: Grid2D, lam: float) -> dict:
    """The scaling laws of g -> lam g, measured and keyed as RescalePoint's
    fields: sup |R| before and after and the relative residual of
    R(lam g) = R(g)/lam; on a cylinder, also the minimal circumference before
    and after and the relative residual of L(lam g) = sqrt(lam) L(g)."""
    scaled = g.rescaled(lam)
    r0 = unbroadcast(MetricInvariants(g, grid).scalar)     # a warped R's column
    r1 = unbroadcast(MetricInvariants(scaled, grid).scalar)
    sup0 = float(np.max(np.abs(r0)))
    laws = {"sup_R_before": sup0, "sup_R_after": float(np.max(np.abs(r1))),
            "curvature_scale_residual":
                float(np.max(np.abs(r1 - r0 / lam))) / max(sup0, 1e-300)}
    if grid.is_cylinder:
        L0, L1 = (min_circumference(m, grid)[0] for m in (g, scaled))
        laws.update(length_before=L0, length_after=L1,
                    length_scale_residual=abs(L1 - np.sqrt(lam) * L0) / L0)
    return laws


@dataclass
class RescalePoint:
    k: int
    t_request: float
    t_used: float
    lam: float
    sup_R_before: float
    sup_R_after: float
    curvature_scale_residual: float    # relative error of R(lam g) = R(g)/lam
    length_before: float | None = None
    length_after: float | None = None
    length_scale_residual: float | None = None


def rescale_trajectory(traj, schedule: RescalingSchedule) -> list:
    """The scaling laws along a schedule: one RescalePoint per entry, measured
    by scaling_laws on the nearest stored snapshot g (its time recorded) and
    on lam g, which is dropped once measured."""
    if not traj.snapshots:
        raise IncompleteTrajectoryError("trajectory carries no snapshots to rescale")
    chosen = nearest_snapshots(traj, schedule)
    return [RescalePoint(k=k, t_request=t_k, t_used=snap.t, lam=lam,
                         **scaling_laws(snap.metric, traj.grid, lam))
            for k, ((t_k, lam), snap) in enumerate(zip(schedule.entries, chosen))]


def length_scaling_check(traj, schedule: RescalingSchedule, cycle) -> dict:
    """Both candidate scaling laws for loop lengths under g -> lambda g.

    The square-root law L(lam g) = sqrt(lam) L(g) holds by definition of length
    and is asserted to 1e-10 relative; the companion printed law L -> lam L is
    evaluated and its deviation reported.  Divergence of the rescaled lengths
    under an unbounded schedule is confirmed when the source lengths stay
    bounded below.
    """
    if not traj.snapshots:
        raise IncompleteTrajectoryError("trajectory carries no snapshots")
    grid = traj.grid
    rows = []
    chosen = nearest_snapshots(traj, schedule)
    for k, ((_, lam), snap) in enumerate(zip(schedule.entries, chosen)):
        L = loop_length(cycle, snap.metric, grid)
        L_scaled = loop_length(cycle, snap.metric.rescaled(lam), grid)
        rows.append({
            "k": k, "t": snap.t, "lambda": lam,
            "length": L, "rescaled_length": L_scaled,
            "sqrt_law_residual": abs(L_scaled - np.sqrt(lam) * L) / max(L, 1e-300),
            "linear_law_deviation": abs(L_scaled - lam * L) / max(L, 1e-300),
        })
    sqrt_ok = all(r["sqrt_law_residual"] <= 1e-10 for r in rows)
    lengths = [r["rescaled_length"] for r in rows]
    lams = [r["lambda"] for r in rows]
    diverges = (len(rows) >= 2 and lams[-1] > lams[0]
                and all(b > a for a, b in zip(lengths, lengths[1:])))
    return {
        "rows": rows,
        "sqrt_law_holds": sqrt_ok,
        "rescaled_lengths_diverge": diverges,
        "min_source_length": min((r["length"] for r in rows), default=float("nan")),
    }


@dataclass
class DecayMonitorSpec:
    sigma: float                       # decay order, > 0
    sample_radii: tuple

    def __post_init__(self):
        _require_all([self.sigma], _positive, "decay order sigma must be positive and finite")
        _require_all(self.sample_radii, _positive, "sample radii must be positive and finite")


def decay_monitor(fieldlike, geo: MetricInvariants, spec: DecayMonitorSpec) -> dict:
    """Shell profile of d_g(x, o)^sigma * |field| at the requested radii.

    Accepts a OneFormField (measured in |.|_g) or an array of pointwise
    magnitudes, such as the scalar curvature (measured in absolute value).
    Reports whether the profile decreases toward the boundary; the
    caller can difference profiles across a run to check that the flow
    preserved the initial decay.  Distances are measured on the bundle's
    metric; each shell holds the interior nodes within twice the largest
    metric node spacing of its radius.
    """
    g, grid = geo.metric, geo.grid
    if isinstance(fieldlike, OneFormField):
        mag = np.sqrt(fieldlike.norm_sq(geo))
    else:
        mag = np.abs(np.asarray(fieldlike, dtype=float))
    d = distance_field(g, grid)
    width = 2.0 * max(grid.hx, grid.hy) * float(np.max(np.sqrt(g.gxx)))
    interior = ~grid.buffer_mask()
    d_max = float(np.max(d[interior])) if interior.any() else float(np.max(d))
    profile = []
    for rho in spec.sample_radii:
        if rho > d_max:
            raise DomainTooSmallError(
                f"sample radius {rho:g} beyond the monitored interior (max {d_max:g})")
        shell = (np.abs(d - rho) <= width) & interior
        if not shell.any():
            raise DomainTooSmallError(f"no nodes in the shell at radius {rho:g}")
        profile.append(float(np.max((d[shell] ** spec.sigma) * mag[shell])))
    decreasing = all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(profile, profile[1:]))
    return {
        "radii": list(spec.sample_radii),
        "profile": profile,
        "sigma": spec.sigma,
        "decreasing_outward": decreasing,
    }

