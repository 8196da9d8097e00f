"""Field containers: metrics and 1-forms.

Component arrays are shaped (nx, ny) with x along axis 0 and theta along
axis 1 (row-major, x-then-theta).  Scalar functions and 2-form densities
(w dx^dtheta, stored as w) need no container: they are plain (nx, ny)
float64 arrays.  Metrics carry a parameterization tag:
"conformal" stores the log factor u with g = e^{2u} (dx^2 + dtheta^2),
"warped" stores 1-D profiles h(x), f(x) with g = h^2 dx^2 + f^2 dtheta^2,
and "general" stores bare components.  The tag is the one dispatch of every
operator and flow rate; general_metric(g.gxx, g.gxt, g.gtt) is the
general-tagged copy of a tagged metric, which takes the general algebra and
serves as its cross-check.

Tagged metrics are diagonal: conformal_metric, warped_metric and rescaled give
them gxt = +0 everywhere, a read-only zero-stride broadcast, and det, inv and
OneFormField.norm_sq rely on it.  det g of a tagged metric is gxx gtt alone,
which is bitwise gxx gtt - (+0)^2, and its g^xt is -0.0, which is bitwise
-(+0)/det g for every det g > 0 (inf included).  |phi|^2 of a tagged metric
drops the 2 g^xt phi_x phi_theta term: it is +-0 for finite phi, and adding
+-0 to the nonnegative g^xx phi_x^2 leaves its bits.

A warped metric depends on x alone: its gxx and gtt are read-only zero-stride
broadcasts of the (nx, 1) profiles h^2 and f^2, and det, sqrt_det, inv and
require_spd work on that column, once per row, and return (nx, ny)
broadcasts.  Each node's value is the same float operation on the same
operands as on full grids, so the bits are those of the general formula.

What is derived from one metric (det g, the inverse, Christoffel symbols,
curvature) lives in operators.MetricInvariants, never on the MetricField:
metric arrays are never mutated in place, so several fields and states may
share them.  The bundle computes det g once and hands it to sqrt_det, inv and
require_spd, the one degeneracy predicate; operators take the bundle, not
the metric.  require_conformal_spd is that predicate read off a conformal
factor u, for states that build no metric.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import DegenerateMetricError

if TYPE_CHECKING:
    from .operators import MetricInvariants

DET_FLOOR = 1e-12
# the u of e^{4u} = 2 DET_FLOOR and of e^{4u} = half the largest float
_U_FLOOR = 0.25 * math.log(2.0 * DET_FLOOR)
_U_CEIL = 0.25 * math.log(0.5 * sys.float_info.max)

GENERAL = "general"
CONFORMAL = "conformal"
WARPED = "warped"


@dataclass
class MetricField:
    gxx: np.ndarray
    gxt: np.ndarray
    gtt: np.ndarray
    tag: str = GENERAL
    u: np.ndarray | None = None        # conformal log factor
    h: np.ndarray | None = None        # warped axial profile, shape (nx,)
    f: np.ndarray | None = None        # warped circle profile, shape (nx,)

    def det(self) -> np.ndarray:
        if self.tag == WARPED:          # one product per row, broadcast over theta
            return np.broadcast_to(self.gxx[:, :1] * self.gtt[:, :1], self.gxx.shape)
        d = self.gxx * self.gtt         # gxx gtt - gxt^2, one temporary fewer
        if self.tag == GENERAL:         # tagged metrics are diagonal
            d -= self.gxt ** 2
        return d

    def sqrt_det(self, d: np.ndarray) -> np.ndarray:
        if self.tag == WARPED:
            return np.broadcast_to(np.sqrt(d[:, :1]), d.shape)
        return np.sqrt(d)

    def inv(self, d: np.ndarray):
        """Inverse components (g^xx, g^xt, g^tt) from det g, `d`, as views of
        one (3, nx, ny) block, or of warped row profiles.  A tagged metric's
        g^xt is -0.0, the general formula's value wherever det g > 0, which
        the SPD check ensures."""
        if self.tag == WARPED:          # one quotient per row
            col = d[:, :1]
            return tuple(np.broadcast_to(c, d.shape)
                         for c in (self.gtt[:, :1] / col, -0.0, self.gxx[:, :1] / col))
        out = np.empty((3,) + d.shape)   # one allocation in place of three
        np.divide(self.gtt, d, out=out[0])
        if self.tag == GENERAL:
            np.negative(self.gxt, out=out[1])
            out[1] /= d
        else:                           # -(+0) / d on a diagonal metric
            out[1].fill(-0.0)
        if self.gxx is self.gtt:        # conformal: g^tt is g^xx, one object
            ixx = out[0]
            return ixx, out[1], ixx
        np.divide(self.gxx, d, out=out[2])
        return out[0], out[1], out[2]

    def require_spd(self, d: np.ndarray):
        """Hard error on the first degenerate node: det g, `d`, not above
        DET_FLOOR, det g = +inf or NaN, or g_xx not positive; silent clamping
        would corrupt monotonicity verdicts.  A warped row is constant in
        theta, so its first degenerate node in row-major order is (i, 0), and
        checking the theta = 0 column finds it."""
        gxx = self.gxx
        if self.tag == WARPED:
            d, gxx = d[:, :1], gxx[:, :1]
        ok = (d > DET_FLOOR) & (d < np.inf) & (gxx > 0.0)
        if not ok.all():
            i, j = np.unravel_index(np.argmin(ok), ok.shape)
            raise DegenerateMetricError((i, j), d[i, j])

    def rescaled(self, lam: float) -> "MetricField":
        """The metric lam * g, preserving the parameterization tag."""
        if lam <= 0:
            raise ValueError("scale factor must be positive")
        gxt = self.gxt if self.tag != GENERAL else lam * self.gxt   # tagged: the +0
        if self.tag == WARPED:          # rescale the row profiles, broadcast again
            shape = self.gxx.shape
            gxx = np.broadcast_to(lam * self.gxx[:, :1], shape)
            gtt = np.broadcast_to(lam * self.gtt[:, :1], shape)
        else:
            gxx, gtt = lam * self.gxx, lam * self.gtt
        m = MetricField(gxx, gxt, gtt, tag=self.tag)
        if self.tag == CONFORMAL:
            m.u = self.u + 0.5 * np.log(lam)
        elif self.tag == WARPED:
            root = np.sqrt(lam)
            m.h = root * self.h
            m.f = root * self.f
        return m


def _diagonal_gxt(like: np.ndarray) -> np.ndarray:
    """The +0 g_xt of a tagged metric: a zero-stride broadcast, read-only by
    construction, so a metric allocates no zero grid.  With glibc's heap
    thresholds pinned at import (riccilab._pin_heap_thresholds), leaving this
    allocation out does not move heap trimming onto the per-step temporaries."""
    return np.broadcast_to(0.0, like.shape)


def unbroadcast(a: np.ndarray) -> np.ndarray:
    """`a` with each zero-stride axis cut to its first entry: a view that
    holds each of its values, so a max or min over it is the one over `a`,
    without the slow pass over a broadcast."""
    return a[tuple(slice(None, 1) if s == 0 else slice(None) for s in a.strides)]


def flat_metric(grid) -> MetricField:
    u = np.zeros((grid.nx, grid.ny))
    return conformal_metric(grid, u)


def conformal_metric(grid, u: np.ndarray) -> MetricField:
    e2u = 2.0 * u
    np.exp(e2u, out=e2u)
    # gxx and gtt share one array: metric arrays are never mutated in place
    return MetricField(e2u, _diagonal_gxt(e2u), e2u, tag=CONFORMAL, u=u)


def require_conformal_spd(grid, u: np.ndarray) -> None:
    """The SPD check of conformal_metric(grid, u), taken on u: it passes and
    raises exactly as MetricInvariants of that metric does.  When min u and
    max u lie strictly between _U_FLOOR and _U_CEIL, det g = e^{2u} e^{2u}
    clears DET_FLOOR and stays finite at every node by a factor 2 that no
    rounding closes, so every node passes.  Otherwise (a NaN fails both
    comparisons) the metric is built and checked node by node: numpy's exp
    need not be monotone bit for bit, so near the floor the extremes of u
    cannot decide.  u may be any part of the grid's u that holds each of its
    values, such as the half a halved run steps: pass and fail are those of
    the whole, and a failure names the part's first degenerate node."""
    if _U_FLOOR < np.min(u) and np.max(u) < _U_CEIL:
        return
    g = conformal_metric(grid, u)
    g.require_spd(g.det())


def warped_metric(grid, h: np.ndarray, f: np.ndarray, width: int | None = None) -> MetricField:
    """g = h(x)^2 dx^2 + f(x)^2 dtheta^2 on a cylinder grid.  gxx and gtt are
    read-only broadcasts of the profiles h^2 and f^2 over theta, so the
    metric holds no (nx, ny) array, and its invariants are computed per row.
    They are (nx, width) broadcasts: grid.ny wide by default, 1 wide for the
    (nx, 1) column states flows.run_flow steps."""
    if h.ndim != 1 or f.ndim != 1:
        raise ValueError("warped profiles must be 1-D functions of x")
    shape = (grid.nx, grid.ny if width is None else width)
    gxx = np.broadcast_to((h ** 2)[:, None], shape)
    gtt = np.broadcast_to((f ** 2)[:, None], shape)
    return MetricField(gxx, _diagonal_gxt(gxx), gtt, tag=WARPED, h=h, f=f)


def general_metric(gxx, gxt, gtt) -> MetricField:
    return MetricField(np.asarray(gxx, float), np.asarray(gxt, float),
                       np.asarray(gtt, float), tag=GENERAL)


@dataclass
class OneFormField:
    """Covariant components phi = x dx + theta dtheta."""

    x: np.ndarray
    theta: np.ndarray

    def norm_sq(self, geo: MetricInvariants) -> np.ndarray:
        """|phi|^2_g pointwise, from the inverse of the bundle's metric; a
        tagged metric's is diagonal."""
        ixx, ixt, itt = geo.inv
        if geo.metric.tag != GENERAL:
            return ixx * self.x ** 2 + itt * self.theta ** 2
        return ixx * self.x ** 2 + 2.0 * ixt * self.x * self.theta + itt * self.theta ** 2

    def components(self) -> np.ndarray:
        return np.stack([self.x, self.theta])

    def copy(self) -> "OneFormField":
        return OneFormField(self.x.copy(), self.theta.copy())
