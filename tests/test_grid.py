import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riccilab.geometry import Grid2D


def test_periodic_spacing():
    g = Grid2D.torus(64, 32, 2 * np.pi, 2 * np.pi)
    assert g.hx == pytest.approx(2 * np.pi / 64)
    assert g.hy == pytest.approx(2 * np.pi / 32)
    assert g.x[0] == 0.0 and g.x[-1] == pytest.approx(2 * np.pi - g.hx)


def test_truncated_axis_centered():
    g = Grid2D.cylinder(101, 16, 20.0)
    assert g.hx == pytest.approx(20.0 / 100)
    assert g.x[0] == pytest.approx(-10.0)
    assert g.x[-1] == pytest.approx(10.0)
    assert g.x[g.origin[0]] == pytest.approx(0.0)


def test_minimum_node_counts():
    with pytest.raises(ValueError):
        Grid2D.torus(4, 64)
    with pytest.raises(ValueError):
        Grid2D.torus(64, 7)


def test_bad_topology_rejected():
    with pytest.raises(ValueError):
        Grid2D(16, 16, 1.0, 1.0, "open", "periodic")


def test_diff_exact_on_linear_truncated():
    g = Grid2D.cylinder(33, 16, 4.0)
    a = np.outer(3.0 * g.x + 1.0, np.ones(16))
    d = g.diff_x(a)
    assert np.max(np.abs(d - 3.0)) < 1e-13   # one-sided ends exact on linears too


def _differences(a, axis, topology):
    """The stencil's unscaled differences in their plain form: the np.roll
    pair on periodic axes, the centered slice with one-sided 3-point closures
    on truncated ones."""
    if topology == "periodic":
        return np.roll(a, -1, axis) - np.roll(a, 1, axis)

    def at(idx):
        s = [slice(None)] * a.ndim
        s[axis] = idx
        return tuple(s)

    out = np.empty_like(a)
    out[at(slice(1, -1))] = a[at(slice(2, None))] - a[at(slice(0, -2))]
    out[at(0)] = -3.0 * a[at(0)] + 4.0 * a[at(1)] - a[at(2)]
    out[at(-1)] = 3.0 * a[at(-1)] - 4.0 * a[at(-2)] + a[at(-3)]
    return out


def _reference_diff(a, axis, h, topology):
    """The stencil in its plain form: the differences times 1/(2h)."""
    return _differences(a, axis, topology) * (1.0 / (2.0 * h))


@pytest.mark.parametrize("grid", [Grid2D.torus(128, 128),
                                  Grid2D.plane(257, 257, 16.0, 16.0),
                                  Grid2D.cylinder(512, 64, 20.0)],
                         ids=["torus128", "plane257", "cylinder512x64"])
def test_slice_stencil_bitwise_equals_reference(grid):
    rng = np.random.default_rng(7)
    inputs = [rng.standard_normal((grid.nx, grid.ny)),
              rng.standard_normal((2, 2, 2, grid.nx, grid.ny)),   # stacked tensors
              rng.standard_normal((grid.ny, grid.nx)).T]           # not C-contiguous
    for a in inputs:
        assert np.array_equal(grid.diff_x(a),
                              _reference_diff(a, a.ndim - 2, grid.hx, grid.topology_x))
        assert np.array_equal(grid.diff_t(a),
                              _reference_diff(a, a.ndim - 1, grid.hy, grid.topology_y))
    profile = rng.standard_normal(grid.nx)                         # 1-D x-profile
    assert np.array_equal(grid.diff_x(profile),
                          _reference_diff(profile, 0, grid.hx, grid.topology_x))


def test_stencil_within_two_ulp_of_quotient():
    # the product by the rounded 1/(2h) adds at most one rounding to the
    # quotient form; on the plane 2h = 1/8, whose reciprocal is exact
    rng = np.random.default_rng(11)
    for grid, exact in ((Grid2D.torus(128, 128), False),
                        (Grid2D.plane(257, 257, 16.0, 16.0), True),
                        (Grid2D.cylinder(512, 64, 20.0), False)):
        a = rng.standard_normal((grid.nx, grid.ny))
        for d, axis, h, topology in ((grid.diff_x(a), 0, grid.hx, grid.topology_x),
                                     (grid.diff_t(a), 1, grid.hy, grid.topology_y)):
            quotient = _differences(a, axis, topology) / (2.0 * h)
            assert np.all(np.abs(d - quotient) <= 2 * np.spacing(np.abs(quotient)))
            assert np.array_equal(d, quotient) == exact


@st.composite
def _grids(draw):
    """Random node counts and topologies, with spacings whose 2h is a power of
    two (its reciprocal exact) or not."""
    axes = []
    for _ in range(2):
        n = draw(st.integers(8, 70))
        topology = draw(st.sampled_from(["periodic", "truncated"]))
        intervals = n if topology == "periodic" else n - 1
        if draw(st.booleans()):
            h = 2.0 ** draw(st.integers(-8, 3))
        else:
            h = draw(st.floats(1e-3, 10.0))
        axes.append((n, intervals * h, topology))
    (nx, lx, tx), (ny, ly, ty) = axes
    return Grid2D(nx, ny, lx, ly, tx, ty)


@settings(max_examples=60)
@given(grid=_grids(), seed=st.integers(0, 2 ** 32 - 1))
def test_stencil_bitwise_equals_reference_on_random_grids(grid, seed):
    rng = np.random.default_rng(seed)
    nx, ny = grid.nx, grid.ny
    inputs = [rng.standard_normal((nx, ny)),                          # C order
              np.asfortranarray(rng.standard_normal((nx, ny))),       # Fortran order
              rng.standard_normal((nx, ny + 3))[:, 1:-2],             # last axis sliced
              rng.standard_normal((nx, 2 * ny))[:, ::2],              # last axis strided
              rng.standard_normal((2, 3, nx, ny))]                    # stacked tensors
    for a in inputs:
        assert np.array_equal(grid.diff_x(a),
                              _reference_diff(a, a.ndim - 2, grid.hx, grid.topology_x))
        assert np.array_equal(grid.diff_t(a),
                              _reference_diff(a, a.ndim - 1, grid.hy, grid.topology_y))
    profile = rng.standard_normal(nx)                                 # 1-D x-profile
    assert np.array_equal(grid.diff_x(profile),
                          _reference_diff(profile, 0, grid.hx, grid.topology_x))


@pytest.mark.parametrize("grid", [Grid2D.torus(16, 12, 2 * np.pi, 3.0),
                                  Grid2D.cylinder(16, 8, 20.0)],
                         ids=["torus", "cylinder"])
def test_column_diff_t_is_the_full_grid_stencil_bitwise(grid):
    # the (nx, 1) column of a theta-invariant field differentiates to column
    # 0 of the full-grid result, bit for bit, with +-0, +-inf and NaN entries
    rng = np.random.default_rng(3)
    column = rng.standard_normal((grid.nx, 1))
    column[:6, 0] = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0]
    for a in (column, np.stack([column, -column])):          # and stacked tensors
        full = np.repeat(a, grid.ny, axis=-1)
        with np.errstate(invalid="ignore"):                  # inf - inf
            wide, narrow = grid.diff_t(full), grid.diff_t(a)
        assert narrow.shape == a.shape
        assert np.array_equal(wide.view(np.int64),
                              np.repeat(narrow, grid.ny, axis=-1).view(np.int64))


_SPECIAL_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-310]


@st.composite
def _kept_halves(draw):
    """A grid truncated on both axes with an odd node count and its spacing
    h, whose 1/(2h) is a power of two or not, and the kept half from its
    center node on, 8 to 33 nodes, along axis 0 or 1 of a 2-D array: normal
    draws, whose sums round, with drawn floats put in at drawn nodes, signed
    zeros, NaN, infinities and subnormals among them."""
    kept, width, axis = draw(st.integers(8, 33)), draw(st.integers(1, 4)), draw(st.integers(0, 1))
    h = 2.0 ** draw(st.integers(-8, 3)) if draw(st.booleans()) else draw(st.floats(1e-3, 10.0))
    n = 2 * kept - 1
    grid = Grid2D.plane(n, n, (n - 1) * h, (n - 1) * h)
    shape = (kept, width) if axis == 0 else (width, kept)
    normal = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(shape)
    values = st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats(width=64))
    drawn = draw(hnp.arrays(np.float64, shape, elements=values))
    return grid, axis, np.where(draw(hnp.arrays(bool, shape)), drawn, normal)


@settings(max_examples=100)
@given(case=_kept_halves())
def test_half_second_difference_is_the_pad_and_cut_composition_bitwise(case):
    # the half of u even about the center node, padded with its two mirror
    # nodes (np.pad's "reflect"), differenced twice along the axis and cut
    # back to the half: diff2_half gives these bits, compared as int64
    grid, axis, a = case
    pad, cut = [(0, 0), (0, 0)], [slice(None), slice(None)]
    pad[axis], cut[axis] = (2, 0), slice(2, None)
    with np.errstate(all="ignore"):                          # inf - inf, overflow
        full = grid.diff(grid.diff(np.pad(a, pad, mode="reflect"), axis), axis)
        half = grid.diff2_half(a, axis)
    assert half.shape == a.shape
    assert np.array_equal(half.view(np.int64), full[tuple(cut)].view(np.int64))


def test_diff_periodic_second_order():
    errs = []
    for n in (32, 64):
        g = Grid2D.torus(n, 8)
        X, _ = g.mesh()
        errs.append(np.max(np.abs(g.diff_x(np.sin(X)) - np.cos(X))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_quadrature_weights():
    g = Grid2D.cylinder(33, 16, 4.0)
    # trapezoid weights on the truncated axis integrate constants exactly
    assert np.sum(g.weights) == pytest.approx(4.0 * 2 * np.pi, rel=1e-12)
    gt = Grid2D.torus(16, 16, 2 * np.pi, 2 * np.pi)
    assert np.sum(gt.weights) == pytest.approx(4 * np.pi ** 2, rel=1e-12)


def test_buffer_and_interior_masks():
    g = Grid2D.cylinder(101, 16, 20.0)
    buf = g.buffer_mask()
    assert buf[0, 0] and buf[-1, 0]
    assert not buf[50, 0]
    # 15% of lx = 3 units deep on each side
    assert np.all(np.abs(g.x[buf[:, 0]]) > 7.0 - 1e-12)
    assert np.all(np.abs(g.x[~buf[:, 0]]) < 7.0 + 1e-12)
    inner = g.interior_mask()
    assert not inner[0, 0] and not inner[1, 0] and inner[2, 0]


def test_grid_hash_stable_and_distinct():
    a = Grid2D.torus(64, 64)
    b = Grid2D.torus(64, 64)
    c = Grid2D.torus(64, 32)
    assert a.hash_hex == b.hash_hex
    assert a.hash_hex != c.hash_hex


def test_refined_preserves_domain():
    g = Grid2D.cylinder(33, 16, 4.0)
    r = g.refined(4)
    assert r.x[0] == pytest.approx(g.x[0])
    assert r.x[-1] == pytest.approx(g.x[-1])
    gt = Grid2D.torus(16, 16).refined(4)
    assert gt.nx == 64 and gt.hx == pytest.approx(2 * np.pi / 64)
