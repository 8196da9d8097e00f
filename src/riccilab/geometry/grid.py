"""Structured 2-D grids and the centered difference stencils every operator uses.

Axis 0 is the x (axial) coordinate, axis 1 is theta.  A periodic axis covers
[0, l) with spacing l/n; a truncated axis covers [-l/2, l/2] inclusive with
spacing l/(n-1).  All derivatives are second order: centered in the interior,
one-sided 3-point at truncated ends.  The same stencil is used wherever a
first derivative appears, so composed operators (d after d, div after grad)
inherit exact structural identities.

The stencil is computed without temporaries and gives the bits of its plain
form, (roll(a, -1) - roll(a, 1)) * (1/(2h)) or the one-sided closures times
the same factor, on every input.  Along the last axis of a C-contiguous array
the interior is one flat sweep over the raveled array; the values it leaves
at each row seam are overwritten by the end formulas, which are therefore
written after the interior.  Multiplying by the rounded reciprocal adds at
most one rounding per difference to the quotient form, far below the O(h^2)
truncation error; when 2h is a power of two the reciprocal is exact and the
product is the quotient's bits.

A field even about the center node of a truncated axis is known from the half
of that axis from the center on.  Grid2D.diff2_half takes d d along the axis
on that half alone, with the full grid's bits: where the composed stencil
reads a node below the center it reads its mirror image, and the first
differences it never reads, the low-end closures among them, are not taken.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

PERIODIC = "periodic"
TRUNCATED = "truncated"


def _axis_coords(n: int, length: float, topology: str) -> np.ndarray:
    if topology == PERIODIC:
        return (length / n) * np.arange(n)
    h = length / (n - 1)
    return -0.5 * length + h * np.arange(n)


@lru_cache(maxsize=None)
def _stencil_slices(ndim: int, axis: int):
    """Index tuples of the stencil along `axis`: the interior (a[2:], a[:-2],
    out[1:-1]), the periodic ends (first, second, last, before last node, as
    length-1 slices) and the truncated ends (nodes 0, 1, 2 and -1, -2, -3)."""
    def at(idx):
        s = [slice(None)] * ndim
        s[axis] = idx
        return tuple(s)

    return ((at(slice(2, None)), at(slice(0, -2)), at(slice(1, -1))),
            (at(slice(0, 1)), at(slice(1, 2)), at(slice(-1, None)), at(slice(-2, -1))),
            tuple(at(i) for i in (0, 1, 2, -1, -2, -3)))


@dataclass(frozen=True)
class Grid2D:
    nx: int
    ny: int
    lx: float
    ly: float
    topology_x: str = PERIODIC
    topology_y: str = PERIODIC
    origin: tuple[int, int] | None = None

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError(f"need at least 8 nodes per axis, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("domain lengths must be positive")
        for topo in (self.topology_x, self.topology_y):
            if topo not in (PERIODIC, TRUNCATED):
                raise ValueError(f"unknown axis topology {topo!r}")
        if self.origin is None:
            ox = (self.nx - 1) // 2 if self.topology_x == TRUNCATED else 0
            oy = (self.ny - 1) // 2 if self.topology_y == TRUNCATED else 0
            object.__setattr__(self, "origin", (ox, oy))

    # ------------------------------------------------------------------ factories
    @staticmethod
    def torus(nx, ny, lx=2 * np.pi, ly=2 * np.pi) -> "Grid2D":
        return Grid2D(nx, ny, lx, ly, PERIODIC, PERIODIC)

    @staticmethod
    def cylinder(nx, ny, lx, ly=2 * np.pi) -> "Grid2D":
        """x truncated, theta periodic."""
        return Grid2D(nx, ny, lx, ly, TRUNCATED, PERIODIC)

    @staticmethod
    def plane(nx, ny, lx, ly) -> "Grid2D":
        return Grid2D(nx, ny, lx, ly, TRUNCATED, TRUNCATED)

    # ------------------------------------------------------------------ geometry
    @property
    def hx(self) -> float:
        return self.lx / self.nx if self.topology_x == PERIODIC else self.lx / (self.nx - 1)

    @property
    def hy(self) -> float:
        return self.ly / self.ny if self.topology_y == PERIODIC else self.ly / (self.ny - 1)

    @cached_property
    def x(self) -> np.ndarray:
        return _axis_coords(self.nx, self.lx, self.topology_x)

    @cached_property
    def theta(self) -> np.ndarray:
        return _axis_coords(self.ny, self.ly, self.topology_y)

    def mesh(self):
        return np.meshgrid(self.x, self.theta, indexing="ij")

    @property
    def is_cylinder(self) -> bool:
        """x truncated and theta periodic: the grid whose theta-circles have a
        minimal circumference."""
        return self.topology_x == TRUNCATED and self.topology_y == PERIODIC

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights: uniform on periodic axes, trapezoid on truncated."""
        wx = np.full(self.nx, self.hx)
        wy = np.full(self.ny, self.hy)
        if self.topology_x == TRUNCATED:
            wx[0] *= 0.5
            wx[-1] *= 0.5
        if self.topology_y == TRUNCATED:
            wy[0] *= 0.5
            wy[-1] *= 0.5
        return np.outer(wx, wy)

    @cached_property
    def hash_hex(self) -> str:
        key = (
            f"{self.nx},{self.ny},{self.lx!r},{self.ly!r},"
            f"{self.topology_x},{self.topology_y},{self.origin}"
        )
        return hashlib.sha256(key.encode()).hexdigest()[:12]

    # ------------------------------------------------------------------ stencils
    def _diff(self, a: np.ndarray, axis: int, h: float, topology: str) -> np.ndarray:
        # Differences are written into one output array, interior first and
        # ends last, and then scaled in place: the bits of
        # (roll(a, -1) - roll(a, 1)) * (1/(2h)), without its temporaries.
        out = np.empty_like(a, dtype=np.result_type(a, 1.0))
        (hi, lo, mid), (first, second, last, before_last), closures = \
            _stencil_slices(a.ndim, axis)
        if axis == a.ndim - 1 and a.flags.c_contiguous and out.flags.c_contiguous:
            # one flat sweep; the row seams it gets wrong are row ends,
            # which the end formulas below overwrite
            flat = a.reshape(-1)
            np.subtract(flat[2:], flat[:-2], out=out.reshape(-1)[1:-1])
        else:
            np.subtract(a[hi], a[lo], out=out[mid])
        if topology == PERIODIC:
            np.subtract(a[second], a[last], out=out[first])
            np.subtract(a[first], a[before_last], out=out[last])
        else:
            e0, e1, e2, f0, f1, f2 = closures
            out[e0] = -3.0 * a[e0] + 4.0 * a[e1] - a[e2]
            out[f0] = 3.0 * a[f0] - 4.0 * a[f1] + a[f2]
        out *= 1.0 / (2.0 * h)
        return out

    def diff2_half(self, a: np.ndarray, axis: int) -> np.ndarray:
        """d_a d_a u along `axis` (0 or 1) on the kept half a = u[origin:] of
        a 2-D u even about the origin node of that truncated axis: the full
        grid's diff(diff(u)) there, by the same operations on the same
        operands.  The first differences run from the image of node 1
        (a[0] - a[2]) and node 0 (a[1] - a[1], so inf and NaN give NaN) on."""
        factor = 1.0 / (2.0 * (self.hx, self.hy)[axis])
        a = a.T if axis else a        # the differenced axis first
        d = np.empty((len(a) + 1,) + a.shape[1:])
        np.subtract(a[0], a[2], out=d[0])
        np.subtract(a[1], a[1], out=d[1])
        np.subtract(a[2:], a[:-2], out=d[2:-1])
        d[-1] = 3.0 * a[-1] - 4.0 * a[-2] + a[-3]
        d *= factor
        out = np.empty_like(a, dtype=d.dtype)
        np.subtract(d[2:], d[:-2], out=out[:-1])
        out[-1] = 3.0 * d[-1] - 4.0 * d[-2] + d[-3]
        out *= factor
        return out.T if axis else out

    def diff_x(self, a: np.ndarray) -> np.ndarray:
        """d/dx along axis -2 of a 2-D (or stacked ...,nx,ny) array, or axis 0 of a 1-D
        x-profile."""
        axis = 0 if a.ndim == 1 else a.ndim - 2
        return self._diff(a, axis, self.hx, self.topology_x)

    def diff_t(self, a: np.ndarray) -> np.ndarray:
        """d/dtheta along the last axis.  On a periodic theta axis an array
        whose last axis has length 1 is the column of a theta-invariant field,
        and its derivative is (a - a) * (1/(2h)): the full-grid stencil's
        value at every node, inf and NaN included."""
        if a.shape[-1] == 1 and self.topology_y == PERIODIC:
            return (a - a) * (1.0 / (2.0 * self.hy))
        return self._diff(a, a.ndim - 1, self.hy, self.topology_y)

    def diff(self, a: np.ndarray, axis_index: int) -> np.ndarray:
        return self.diff_x(a) if axis_index == 0 else self.diff_t(a)

    # ------------------------------------------------------------------ misc
    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """True on nodes held fixed during flows (ends of truncated axes)."""
        m = np.zeros((self.nx, self.ny), dtype=bool)
        if self.topology_x == TRUNCATED:
            m[0, :] = True
            m[-1, :] = True
        if self.topology_y == TRUNCATED:
            m[:, 0] = True
            m[:, -1] = True
        return m

    def interior_mask(self) -> np.ndarray:
        """True at least 2 nodes away from truncated ends, where every composed
        stencil is fully centered; that is where second-order convergence is
        measured, since one-sided closures at the ends are first order when
        composed."""
        m = np.ones((self.nx, self.ny), dtype=bool)
        if self.topology_x == TRUNCATED:
            m[:2, :] = False
            m[-2:, :] = False
        if self.topology_y == TRUNCATED:
            m[:, :2] = False
            m[:, -2:] = False
        return m

    def buffer_mask(self) -> np.ndarray:
        """Nodes within 15% of the domain length of a truncated end."""
        m = np.zeros((self.nx, self.ny), dtype=bool)
        if self.topology_x == TRUNCATED:
            depth = 0.15 * self.lx
            xs = self.x
            m[(xs - xs[0]) < depth, :] = True
            m[(xs[-1] - xs) < depth, :] = True
        if self.topology_y == TRUNCATED:
            depth = 0.15 * self.ly
            ts = self.theta
            m[:, (ts - ts[0]) < depth] = True
            m[:, (ts[-1] - ts) < depth] = True
        return m

    def refined(self, factor: int) -> "Grid2D":
        """Same domain at `factor` times the resolution (used by oracles)."""
        nx = self.nx * factor if self.topology_x == PERIODIC else (self.nx - 1) * factor + 1
        ny = self.ny * factor if self.topology_y == PERIODIC else (self.ny - 1) * factor + 1
        return Grid2D(nx, ny, self.lx, self.ly, self.topology_x, self.topology_y)
