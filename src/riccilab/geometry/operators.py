"""Differential-geometric operators on structured 2-D grids.

Sign conventions, fixed once for the whole package:

* the rough Laplacian is the trace of the second covariant derivative, so it
  has nonpositive spectrum and u_t = (Delta)u smooths;
* the Hodge Laplacian on forms is Delta_d = -(d delta + delta d), related to
  the rough Laplacian by Delta_d phi = Delta phi - Ric(phi);
* the codifferential is the metric adjoint of d with
  integral((delta phi) F dv) = integral(<phi, dF>_g dv).

Every derivative is the one centered stencil provided by Grid2D, composed as
needed.  Because the per-axis stencils are linear maps acting on different
tensor factors, d(dF) = 0 holds to machine precision and the factorized Hodge
operator is exactly skew-adjoint-compatible on periodic grids.

Everything derived from one metric lives in one MetricInvariants bundle: det g
and the SPD check on construction, then sqrt(det g), the inverse, the
Christoffel symbols and the curvature parts, each computed the first time it
is read.  The bundle is the one geometry argument: an operator that reads any
of these parts takes the bundle `geo` and reads the metric and the grid from
it.  Functions of the raw components alone take (g, grid).

The metric's tag is the one dispatch.  On a conformal or warped metric the
Christoffel symbols differentiate the stored parameterization, and the
curvature, the covariant derivative of a 1-form, the codifferential, the
delta of a 2-form and the Laplace-Beltrami operator take closed forms, with
the same stencil calls as the general sqrt(det g) g^{ij} algebra and no
metric products:

* nabla_k phi_i reads the Christoffel symbols straight from their stencils,
  +-u_x and +-u_t conformal and h'/h, -f f'/h^2 and f'/f warped, leaves out
  those that vanish identically and builds no Gamma array;

* conformal, e = g^xx = e^{-2u}: delta phi = -e (d_x phi_x + d_theta
  phi_theta), delta(w dx^dtheta) = (d_theta(e w), -d_x(e w)) and
  Delta_LB F = e Lap0 F;
* warped, p = f/h, q = h/f, s = h f as (nx, 1) profiles:
  delta phi = -(d_x(p phi_x) + q d_theta phi_theta)/s,
  delta(w dx^dtheta) = (q d_theta(w/s), -p d_x(w/s)) and
  Delta_LB F = (d_x(p d_x F) + q d_theta d_theta F)/s.

A general metric takes the coordinate Christoffel symbols, the coordinate
curvature contraction and the general algebra; the general-tagged copy
general_metric(g.gxx, g.gxt, g.gtt) of a tagged metric is its cross-check.
laplace_beltrami(F) and -codifferential(dF) run the same operations, so they
agree bitwise.  On every tagged metric g^xt is -0.0, so |nabla phi|^2 sums
only its four diagonal terms and |phi|^2 drops its cross term: each dropped
term is +-0 for finite fields, which leaves the bits of the nonnegative sum
unchanged.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .fields import CONFORMAL, GENERAL, WARPED, MetricField, OneFormField, unbroadcast
from .grid import PERIODIC, TRUNCATED, Grid2D


class MetricInvariants:
    """The geometry of one metric on its grid.

    det g is computed and SPD-checked on construction.  Every other part is
    computed the first time it is read, at most once: `sqrt_det` and `inv`
    (g^xx, g^xt, g^tt) from that det g through the MetricField methods,
    `gamma[k, i, j]` = Gamma^k_ij through christoffel, and the curvature parts
    `scalar`, `ricci` (R_xx, R_xt, R_tt) and `endo`, the Ricci endomorphism
    endo[a, b] = g^{ak} R_kb.  The metric's tag picks the closed forms of a
    conformal or warped metric, which read `inv[0]` (conformal) or the
    profiles `warp` (warped), or the coordinate formulas and the general
    algebra of a general one; reading `scalar` of a tagged metric runs
    reduced_scalar_curvature alone.  A bundle is never attached to its
    MetricField, whose arrays are never mutated in place.
    """

    def __init__(self, g: MetricField, grid: Grid2D):
        self.metric, self.grid = g, grid
        self.det = g.det()
        g.require_spd(self.det)

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return self.metric.sqrt_det(self.det)

    @cached_property
    def inv(self) -> tuple:
        return self.metric.inv(self.det)

    @cached_property
    def warp(self) -> tuple:
        """The warped profiles p = f/h, q = h/f and s = h f, shaped (nx, 1):
        sqrt(det g) g^xx, sqrt(det g) g^tt and sqrt(det g) in closed form."""
        h, f = self.metric.h[:, None], self.metric.f[:, None]
        return f / h, h / f, h * f

    @cached_property
    def gamma(self) -> np.ndarray:
        return christoffel(self)

    @cached_property
    def scalar(self) -> np.ndarray:
        if self.metric.tag == GENERAL:
            return self._curvature[1]
        return reduced_scalar_curvature(self.metric, self.grid)

    @cached_property
    def _curvature(self) -> tuple:
        if self.metric.tag == GENERAL:
            return curvature(self)
        return curvature_reduced(self.metric, self.scalar)

    @property
    def ricci(self) -> tuple:
        return self._curvature[0]

    @property
    def endo(self) -> np.ndarray:
        return self._curvature[2]


def _sym2(xx: np.ndarray, xt: np.ndarray, tt: np.ndarray) -> np.ndarray:
    """Symmetric 2x2 field [[xx, xt], [xt, tt]] stacked as (2, 2, nx, ny)."""
    out = np.empty((2, 2) + xx.shape)
    out[0, 0], out[0, 1] = xx, xt
    out[1, 0], out[1, 1] = xt, tt
    return out


# --------------------------------------------------------------------- Christoffel
def christoffel(geo: MetricInvariants) -> np.ndarray:
    """Christoffel symbols of the bundle's metric, gam[k, i, j] = Gamma^k_ij
    (upper index first).

    On a tagged metric the stencils differentiate the stored parameterization
    (u, or h and f), which is exact for data that is polynomial in the
    coordinates; on a general one the coordinate formula
    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) is applied to the
    raw components.
    """
    g, grid = geo.metric, geo.grid
    nx, ny = g.gxx.shape
    gam = np.zeros((2, 2, 2, nx, ny))

    if g.tag == CONFORMAL:
        ux, ut = _reduced_gamma(geo)
        gam[0, 0, 0] = ux
        gam[0, 0, 1] = gam[0, 1, 0] = ut
        gam[0, 1, 1] = -ux
        gam[1, 1, 1] = ut
        gam[1, 0, 1] = gam[1, 1, 0] = ux
        gam[1, 0, 0] = -ut
        return gam

    if g.tag == WARPED:
        gam[0, 0, 0], gam[0, 1, 1], gam[1, 0, 1] = _reduced_gamma(geo)
        gam[1, 1, 0] = gam[1, 0, 1]
        return gam

    comp = _sym2(g.gxx, g.gxt, g.gtt)
    inv = _sym2(*geo.inv)
    dg = np.empty((2, 2, 2, nx, ny))   # dg[l, i, j] = d_l g_ij
    for i in range(2):
        for j in range(i, 2):
            dg[0, i, j] = dg[0, j, i] = grid.diff_x(comp[i, j])
            dg[1, i, j] = dg[1, j, i] = grid.diff_t(comp[i, j])
    for k in range(2):
        for i in range(2):
            for j in range(i, 2):
                s = np.zeros((nx, ny))
                for l in range(2):
                    s += inv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                gam[k, i, j] = gam[k, j, i] = 0.5 * s
    return gam


def _reduced_gamma(geo: MetricInvariants) -> tuple:
    """What the Christoffel symbols of a tagged metric's bundle are made of:
    conformal, (u_x, u_t), each Gamma^k_ij being one of them up to sign;
    warped, the three that do not vanish identically, (Gamma^x_xx,
    Gamma^x_tt, Gamma^t_xt) = (h'/h, -f f'/h^2, f'/f) as (nx, 1) profiles."""
    g, grid = geo.metric, geo.grid
    if g.tag == CONFORMAL:
        return grid.diff_x(g.u), grid.diff_t(g.u)
    hp = grid.diff_x(g.h)
    fp = grid.diff_x(g.f)
    return (hp / g.h)[:, None], (-g.f * fp / g.h ** 2)[:, None], (fp / g.f)[:, None]


# --------------------------------------------------------------------- curvature
def warped_gauss_curvature(h: np.ndarray, f: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Gauss curvature K(x) of h(x)^2 dx^2 + f(x)^2 dtheta^2 from its 1-D
    profiles; the scalar curvature is 2K."""
    fp = grid.diff_x(f)
    fpp = grid.diff_x(fp)
    hp = grid.diff_x(h)
    return -(fpp / h ** 2 - fp * hp / h ** 3) / f


def flat_laplacian(u: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Lap0 u = d_x d_x u + d_theta d_theta u with the composed first-derivative
    stencils."""
    lap = grid.diff_x(grid.diff_x(u))
    lap += grid.diff_t(grid.diff_t(u))
    return lap


def reduced_scalar_curvature(g: MetricField, grid: Grid2D) -> np.ndarray:
    """Closed-form scalar curvature for tagged metrics (stencils applied to the
    parameterization, not the components); a warped metric's is its 2K(x)
    profile as a read-only broadcast over theta."""
    if g.tag == CONFORMAL:
        return -2.0 * np.exp(-2.0 * g.u) * flat_laplacian(g.u, grid)
    if g.tag == WARPED:
        gauss = warped_gauss_curvature(g.h, g.f, grid)
        return np.broadcast_to((2.0 * gauss)[:, None], g.gxx.shape)
    raise ValueError(f"no reduced curvature for tag {g.tag!r}")


def curvature_reduced(g: MetricField, scalar: np.ndarray) -> tuple:
    """Curvature of a conformal/warped metric from its reduced scalar curvature
    R = reduced_scalar_curvature(g, grid): Ricci = (R/2) g (2-D identity),
    endomorphism (R/2) Id.  Returns ((R_xx, R_xt, R_tt), R, endo)."""
    half = 0.5 * scalar
    endo = np.zeros((2, 2) + scalar.shape)
    endo[0, 0] = endo[1, 1] = half
    return (half * g.gxx, half * g.gxt, half * g.gtt), scalar, endo


def curvature(geo: MetricInvariants) -> tuple:
    """Curvature via the coordinate contraction of the curvature tensor, built
    on the bundle's Christoffel symbols.  Returns ((R_xx, R_xt, R_tt), R, endo)
    with endo[a, b] = g^{ak} R_kb."""
    g, grid, gam = geo.metric, geo.grid, geo.gamma
    inv = _sym2(*geo.inv)
    nx, ny = g.gxx.shape

    dgam = np.empty((2, 2, 2, 2, nx, ny))  # dgam[m, k, i, j] = d_m Gamma^k_ij
    dgam[0] = grid.diff_x(gam)
    dgam[1] = grid.diff_t(gam)

    contracted = gam[0, 0] + gam[1, 1]                  # C_j = Gamma^k_kj
    ric = np.empty((2, 2, nx, ny))
    for i in range(2):
        for j in range(2):
            t1 = dgam[0, 0, i, j] + dgam[1, 1, i, j]
            t2 = grid.diff(contracted[j], i)
            t3 = sum(contracted[l] * gam[l, i, j] for l in range(2))
            t4 = sum(gam[k, i, l] * gam[l, k, j]
                     for k in range(2) for l in range(2))
            ric[i, j] = t1 - t2 + t3 - t4
    ric_sym = 0.5 * (ric + ric.transpose(1, 0, 2, 3))

    scal = np.zeros((nx, ny))
    for i in range(2):
        for j in range(2):
            scal += inv[i, j] * ric_sym[i, j]
    endo = np.einsum("ab...,b c...->ac...", inv, ric_sym)
    return (ric_sym[0, 0], ric_sym[0, 1], ric_sym[1, 1]), scal, endo


# --------------------------------------------------------------------- d and delta
def exterior_derivative(field, grid: Grid2D):
    """d on scalar arrays (gives a 1-form) and on 1-forms (gives the 2-form
    density d_x phi_theta - d_theta phi_x, an array)."""
    if isinstance(field, OneFormField):
        return grid.diff_x(field.theta) - grid.diff_t(field.x)
    vals = np.asarray(field)
    return OneFormField(grid.diff_x(vals), grid.diff_t(vals))


def _divergence(ax: np.ndarray, at: np.ndarray, geo: MetricInvariants) -> np.ndarray:
    """div a = (1/sqrt(det g)) d_i (sqrt(det g) g^{ij} a_j) of the 1-form
    (ax, at).  codifferential is -div and laplace_beltrami is div(dF), so
    Delta_LB F = -delta(dF) holds bitwise on every metric."""
    grid, tag = geo.grid, geo.metric.tag
    if tag == CONFORMAL:
        # sqrt(det g) g^{ij} = delta^{ij} and 1/sqrt(det g) = g^xx = e^{-2u}
        out = grid.diff_x(ax)
        out += grid.diff_t(at)
        out *= geo.inv[0]
        return out
    if tag == WARPED:               # (d_x(p a_x) + q d_theta a_t) / s
        p, q, s = geo.warp
        out = grid.diff_x(p * ax)
        d_at = grid.diff_t(at)
        d_at *= q
        out += d_at
        out /= s
        return out
    sg = geo.sqrt_det
    ixx, ixt, itt = geo.inv
    out = grid.diff_x(sg * (ixx * ax + ixt * at))
    out += grid.diff_t(sg * (ixt * ax + itt * at))
    out /= sg
    return out


def codifferential(phi: OneFormField, geo: MetricInvariants) -> np.ndarray:
    """delta phi = -(1/sqrt(det g)) d_i (sqrt(det g) g^{ij} phi_j)."""
    delta = _divergence(phi.x, phi.theta, geo)
    np.negative(delta, out=delta)
    return delta


def _codifferential_two_form(w: np.ndarray, geo: MetricInvariants) -> OneFormField:
    """delta of the 2-form w dx^dtheta, the adjoint of d on 1-forms:
    (g a) / sqrt(det g) with a = (d_theta, -d_x)(w / sqrt(det g))."""
    g, grid = geo.metric, geo.grid
    if g.tag == CONFORMAL:                      # (d_theta(e w), -d_x(e w)), e = g^xx
        density = geo.inv[0] * w
        at = grid.diff_x(density)
        np.negative(at, out=at)
        return OneFormField(grid.diff_t(density), at)
    if g.tag == WARPED:                         # (q d_theta(w/s), -p d_x(w/s))
        p, q, s = geo.warp
        density = w / s
        ax = grid.diff_t(density)
        ax *= q
        at = grid.diff_x(density)
        at *= -p
        return OneFormField(ax, at)
    sg = geo.sqrt_det
    density = w / sg
    ax = grid.diff_t(density)
    at = -grid.diff_x(density)
    return OneFormField((g.gxx * ax + g.gxt * at) / sg,
                        (g.gxt * ax + g.gtt * at) / sg)


def laplace_beltrami(values: np.ndarray, geo: MetricInvariants) -> np.ndarray:
    """Scalar Laplacian in divergence form, -delta(d F); nonpositive spectrum."""
    grid = geo.grid
    return _divergence(grid.diff_x(values), grid.diff_t(values), geo)


# --------------------------------------------------------------------- Laplacians on forms
_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _nabla(phi: OneFormField, geo: MetricInvariants):
    """Yields nabla_k phi_i = d_k phi_i - Gamma^l_ki phi_l for (k, i) in _PAIRS
    order.  On a tagged metric Gamma comes from _reduced_gamma and the terms
    whose Gamma vanishes identically are left out; the others keep the
    operation order of the coordinate expression."""
    grid, g = geo.grid, geo.metric
    x, t = phi.x, phi.theta
    if g.tag == CONFORMAL:
        ux, ut = _reduced_gamma(geo)
        yield grid.diff_x(x) - ux * x - (-ut) * t
        ut_x, ux_t = ut * x, ux * t     # Gamma^l_xt phi_l = Gamma^l_tx phi_l
        yield grid.diff_x(t) - ut_x - ux_t
        yield grid.diff_t(x) - ut_x - ux_t
        yield grid.diff_t(t) - (-ux) * x - ut * t
        return
    if g.tag == WARPED:
        g_xxx, g_xtt, g_txt = _reduced_gamma(geo)
        yield grid.diff_x(x) - g_xxx * x
        g_txt_t = g_txt * t
        yield grid.diff_x(t) - g_txt_t
        yield grid.diff_t(x) - g_txt_t
        yield grid.diff_t(t) - g_xtt * x
        return
    gam = geo.gamma
    comp = (x, t)
    for k, i in _PAIRS:
        yield grid.diff(comp[i], k) - gam[0, k, i] * x - gam[1, k, i] * t


def covariant_derivative(phi: OneFormField, geo: MetricInvariants) -> np.ndarray:
    """S[k, i] = nabla_k phi_i = d_k phi_i - Gamma^l_ki phi_l."""
    s = np.empty((2, 2) + phi.x.shape)
    for (k, i), ski in zip(_PAIRS, _nabla(phi, geo)):
        s[k, i] = ski
    return s


def grad_norm_sq(phi: OneFormField, geo: MetricInvariants) -> np.ndarray:
    """|nabla phi|^2_g = g^{km} g^{in} S_ki S_mn, the full covariant gradient
    energy density.  On a tagged metric only the k = m, i = n terms are
    summed, component by component, with no S array; the weights g^kk g^ii
    are taken on a warped inverse's column, and the sum starts from the first
    term (each term is >= +0, so 0.0 + t is t)."""
    if geo.metric.tag != GENERAL:       # g^xt = -0.0: the other 12 terms are +-0
        ixx, _, itt = geo.inv
        diag = (unbroadcast(ixx), unbroadcast(itt))
        out = None
        for (k, i), ski in zip(_PAIRS, _nabla(phi, geo)):
            term = diag[k] * diag[i] * ski
            term *= ski
            out = term if out is None else np.add(out, term, out=out)
        return out
    out = np.zeros(phi.x.shape)
    s = covariant_derivative(phi, geo)
    inv = _sym2(*geo.inv)
    for k in range(2):
        for m in range(2):
            for i in range(2):
                for n in range(2):
                    out += inv[k, m] * inv[i, n] * s[k, i] * s[m, n]
    return out


def rough_laplacian(phi: OneFormField, geo: MetricInvariants) -> OneFormField:
    """(Delta phi)_i = g^{jk} (nabla_j nabla_k phi)_i via composed covariant
    derivatives."""
    grid, gam = geo.grid, geo.gamma
    s = covariant_derivative(phi, geo)
    inv = _sym2(*geo.inv)
    out = np.zeros((2,) + phi.x.shape)
    for i in range(2):
        acc = np.zeros(phi.x.shape)
        for j in range(2):
            for k in range(2):
                ds = grid.diff(s[k, i], j)
                corr = sum(gam[m, j, k] * s[m, i] + gam[m, j, i] * s[k, m]
                           for m in range(2))
                acc += inv[j, k] * (ds - corr)
        out[i] = acc
    return OneFormField(out[0], out[1])


def hodge_laplacian(phi: OneFormField, geo: MetricInvariants,
                    method: str = "dd") -> OneFormField:
    """Delta_d phi, either factorized as -(d delta + delta d) ("dd") or through the
    Bochner identity Delta phi - Ric(phi) ("bochner").  The two agree to
    discretization error; the factorized path is exactly compatible with d and
    delta at the stencil level and drives the heat flows.
    """
    grid = geo.grid
    if method == "dd":
        ds = codifferential(phi, geo)
        w = exterior_derivative(phi, grid)
        delta_d = _codifferential_two_form(w, geo)
        # d delta is formed last and in place, so fewer full-grid temporaries
        # are live at once
        lap_x, lap_t = grid.diff_x(ds), grid.diff_t(ds)
        lap_x += delta_d.x
        lap_t += delta_d.theta
        np.negative(lap_x, out=lap_x)
        np.negative(lap_t, out=lap_t)
        return OneFormField(lap_x, lap_t)
    if method == "bochner":
        rough = rough_laplacian(phi, geo)
        e = geo.endo
        return OneFormField(
            rough.x - (e[0, 0] * phi.x + e[1, 0] * phi.theta),
            rough.theta - (e[0, 1] * phi.x + e[1, 1] * phi.theta),
        )
    raise ValueError(f"unknown Hodge Laplacian method {method!r}")


# --------------------------------------------------------------------- distances
def distance_field(g: MetricField, grid: Grid2D) -> np.ndarray:
    """Geodesic distance d_g(node, origin) for axially symmetric scenarios.

    Computed as 1-D arclength along the axial coordinate through the origin
    row; on doubly-truncated (plane) grids the radial profile measured along
    the +x ray is applied to the coordinate radius, which assumes rotational
    symmetry of the metric about the origin.
    """
    ox, oy = grid.origin
    root_gxx = np.sqrt(g.gxx[:, oy])
    # segment lengths between consecutive x-nodes (trapezoid), then signed cumsum
    seg = 0.5 * (root_gxx[1:] + root_gxx[:-1]) * grid.hx
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    axial = np.abs(cum - cum[ox])

    if grid.topology_x == PERIODIC:
        total = cum[-1] + 0.5 * (root_gxx[0] + root_gxx[-1]) * grid.hx
        axial = np.minimum(axial, total - axial)

    if grid.topology_y == TRUNCATED and grid.topology_x == TRUNCATED:
        # plane: map coordinate radius through the +x arclength profile
        rho = grid.x[ox:] - grid.x[ox]
        dist = cum[ox:] - cum[ox]
        xg, tg = grid.mesh()
        r = np.hypot(xg - grid.x[ox], tg - grid.theta[oy])
        out = np.interp(r, rho, dist)
        beyond = r > rho[-1]
        if beyond.any() and len(rho) > 1:
            slope = (dist[-1] - dist[-2]) / (rho[-1] - rho[-2])
            out[beyond] = dist[-1] + slope * (r[beyond] - rho[-1])
        return out
    return np.broadcast_to(axial[:, None], (grid.nx, grid.ny)).copy()
