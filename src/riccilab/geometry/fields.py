"""Field containers: metrics, 1-forms, scalars, curvature bundles.

Component arrays are shaped (nx, ny) with x along axis 0 and theta along
axis 1 (row-major, x-then-theta).  Metrics carry a parameterization tag:
"conformal" stores the log factor u with g = e^{2u} (dx^2 + dtheta^2),
"warped" stores 1-D profiles h(x), f(x) with g = h^2 dx^2 + f^2 dtheta^2,
and "general" stores bare components.

MetricInvariants bundles det g, sqrt(det g) and the inverse of one metric,
validated once; operators take it instead of recomputing them.  A bundle
belongs to one RK stage, CFL evaluation or monitor record and is dropped with
it: it is never attached to the MetricField, whose arrays are never mutated
in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import DegenerateMetricError

DET_FLOOR = 1e-12

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
        d = self.gxx * self.gtt         # gxx gtt - gxt^2, one temporary fewer
        d -= self.gxt ** 2
        return d

    def sqrt_det(self, d: np.ndarray | None = None) -> np.ndarray:
        return np.sqrt(self.det() if d is None else d)

    def inv(self, d: np.ndarray | None = None):
        """Inverse components (g^xx, g^xt, g^tt); `d` is det g when the caller
        already has it."""
        if d is None:
            d = self.det()
        ixt = np.negative(self.gxt)     # -gxt / d, one temporary fewer
        ixt /= d
        return self.gtt / d, ixt, self.gxx / d

    def require_spd(self, d: np.ndarray | None = None):
        """Hard error on any degenerate node; silent clamping would corrupt
        monotonicity verdicts.  `d` is det g when the caller already has it."""
        if d is None:
            d = self.det()
        bad = (d <= DET_FLOOR) | (self.gxx <= 0.0)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise DegenerateMetricError((i, j), d[i, j])

    def is_degenerate(self) -> bool:
        d = self.det()
        return bool(((d <= DET_FLOOR) | (self.gxx <= 0.0) | ~np.isfinite(d)).any())

    def rescaled(self, lam: float) -> "MetricField":
        """The metric lam * g, preserving the parameterization tag."""
        if lam <= 0:
            raise ValueError("scale factor must be positive")
        m = MetricField(lam * self.gxx, lam * self.gxt, lam * self.gtt, tag=self.tag)
        if self.tag == CONFORMAL and self.u is not None:
            m.u = self.u + 0.5 * np.log(lam)
        elif self.tag == WARPED and self.h is not None:
            root = np.sqrt(lam)
            m.h = root * self.h
            m.f = root * self.f
        return m

    def copy(self) -> "MetricField":
        return MetricField(
            self.gxx.copy(), self.gxt.copy(), self.gtt.copy(), self.tag,
            None if self.u is None else self.u.copy(),
            None if self.h is None else self.h.copy(),
            None if self.f is None else self.f.copy(),
        )


class MetricInvariants:
    """det g (computed and SPD-checked on construction), sqrt(det g) and the
    inverse components (g^xx, g^xt, g^tt) of one metric, each computed at most
    once, through the MetricField methods, from the one det g."""

    def __init__(self, g: MetricField):
        self.metric = g
        self.det = g.det()
        g.require_spd(self.det)

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return self.metric.sqrt_det(self.det)

    @cached_property
    def inv(self) -> tuple:
        return self.metric.inv(self.det)


def flat_metric(grid) -> MetricField:
    u = np.zeros((grid.nx, grid.ny))
    return conformal_metric(grid, u)


def conformal_metric(grid, u: np.ndarray) -> MetricField:
    e2u = 2.0 * u
    np.exp(e2u, out=e2u)
    # gxx and gtt share one array: metric arrays are never mutated in place
    return MetricField(e2u, np.zeros_like(e2u), e2u, tag=CONFORMAL, u=u)


def warped_metric(grid, h: np.ndarray, f: np.ndarray) -> MetricField:
    """g = h(x)^2 dx^2 + f(x)^2 dtheta^2 on a cylinder grid."""
    if h.ndim != 1 or f.ndim != 1:
        raise ValueError("warped profiles must be 1-D functions of x")
    ones = np.ones(grid.ny)
    gxx = np.outer(h ** 2, ones)
    gtt = np.outer(f ** 2, ones)
    return MetricField(gxx, np.zeros_like(gxx), gtt, tag=WARPED, h=h, f=f)


def general_metric(gxx, gxt, gtt) -> MetricField:
    return MetricField(np.asarray(gxx, float), np.asarray(gxt, float),
                       np.asarray(gtt, float), tag=GENERAL)


@dataclass
class OneFormField:
    """Covariant components phi = x dx + theta dtheta."""

    x: np.ndarray
    theta: np.ndarray

    def norm_sq(self, g: MetricField,
                invariants: MetricInvariants | None = None) -> np.ndarray:
        ixx, ixt, itt = (invariants or MetricInvariants(g)).inv
        return ixx * self.x ** 2 + 2.0 * ixt * self.x * self.theta + itt * self.theta ** 2

    def components(self) -> np.ndarray:
        return np.stack([self.x, self.theta])

    def copy(self) -> "OneFormField":
        return OneFormField(self.x.copy(), self.theta.copy())


@dataclass
class ScalarField:
    values: np.ndarray

    def copy(self) -> "ScalarField":
        return ScalarField(self.values.copy())


@dataclass
class CurvatureData:
    """Christoffels and curvature of one metric.  `gamma[k, i, j]` is the symbol with
    upper index k; `endo[a, b]` is the Ricci endomorphism R^a_b = g^{ak} R_{kb}."""

    gamma: np.ndarray | None = None
    ricci_xx: np.ndarray | None = None
    ricci_xt: np.ndarray | None = None
    ricci_tt: np.ndarray | None = None
    scalar: np.ndarray | None = None
    endo: np.ndarray | None = None
    reduced_scalar: np.ndarray | None = None
    cross_residual: float | None = None

    def sup_scalar(self) -> float:
        return float(np.max(np.abs(self.scalar)))
