import numpy as np
import pytest

from riccilab.errors import (DomainTooSmallError, OracleInapplicableError,
                             UnreliableOracleError)
from riccilab.geometry import Grid2D, conformal_metric, flat_metric
from riccilab.oracles import (TrigMode, cigar_oracle, flat_spectral_oracle,
                              quadrature_oracle)


def test_spectral_single_mode(torus64, flat64):
    res = flat_spectral_oracle([TrigMode("form_x", "sin", 1, 0)], 1.0, torus64,
                               g=flat64)
    X, _ = torus64.mesh()
    assert res.value.x == pytest.approx(np.exp(-1.0) * np.sin(X), abs=1e-14)
    assert np.max(np.abs(res.value.theta)) == 0.0
    assert res.error_bound > 0


def test_spectral_constant_unchanged(torus64):
    res = flat_spectral_oracle([TrigMode("form_t", "cos", 0, 0)], 5.0, torus64)
    assert np.max(np.abs(res.value.theta - 1.0)) < 1e-14


def test_spectral_linearity(torus64):
    m1 = [TrigMode("scalar", "sin", 1, 0, 2.0)]
    m2 = [TrigMode("scalar", "cos", 0, 2, 0.5)]
    both = flat_spectral_oracle(m1 + m2, 0.7, torus64).value
    a = flat_spectral_oracle(m1, 0.7, torus64).value
    b = flat_spectral_oracle(m2, 0.7, torus64).value
    assert both == pytest.approx(a + b, abs=1e-14)


def test_spectral_rejects_curved_metric(torus64):
    X, T = torus64.mesh()
    g = conformal_metric(torus64, 0.1 * np.sin(X))
    with pytest.raises(OracleInapplicableError):
        flat_spectral_oracle([TrigMode("scalar", "sin", 1, 0)], 1.0, torus64, g=g)


def test_cigar_reference_values():
    grid = Grid2D.plane(65, 65, 12.0, 12.0)
    ref = cigar_oracle(grid).value
    o = grid.origin
    assert ref.scalar_curvature[o] == pytest.approx(4.0, abs=1e-12)
    assert ref.sup_R == 4.0
    ref.metric.require_spd(ref.metric.det())   # positive-definite everywhere
    # d * R stays bounded toward the edge (logarithmic distance, quadratic decay)
    from riccilab.geometry import distance_field
    d = distance_field(ref.metric, grid)
    assert np.max(d * ref.scalar_curvature) < 4.0


def test_cigar_domain_guard():
    with pytest.raises(DomainTooSmallError):
        cigar_oracle(Grid2D.plane(17, 17, 3.0, 3.0))
    with pytest.raises(OracleInapplicableError):
        cigar_oracle(Grid2D.torus(32, 32))


def test_quadrature_unit_area():
    grid = Grid2D.torus(16, 16)
    res = quadrature_oracle(lambda X, T: np.ones_like(X), grid, label="area")
    assert res.value == pytest.approx(4 * np.pi ** 2, abs=res.error_bound)


def test_quadrature_sin_squared():
    grid = Grid2D.torus(16, 16)
    res = quadrature_oracle(lambda X, T: np.sin(X) ** 2, grid)
    assert res.error_bound < 1e-8
    assert res.value == pytest.approx(2 * np.pi ** 2, abs=1e-8)


def test_quadrature_one_plus_cos():
    grid = Grid2D.torus(16, 16)
    res = quadrature_oracle(lambda X, T: 1.0 + np.cos(X), grid)
    assert res.value == pytest.approx(4 * np.pi ** 2, abs=1e-8)


def test_quadrature_truncated_domain():
    grid = Grid2D.cylinder(17, 16, 4.0)
    res = quadrature_oracle(lambda X, T: X ** 2, grid)
    exact = (2 * 2.0 ** 3 / 3) * 2 * np.pi
    assert res.value == pytest.approx(exact, abs=max(res.error_bound, 1e-9))


def test_quadrature_flags_nonconvergence():
    grid = Grid2D.cylinder(17, 16, 4.0)
    # value keeps moving with the refinement level: must be reported as
    # unreliable, never silently extrapolated
    with pytest.raises(UnreliableOracleError):
        quadrature_oracle(lambda X, T: float(X.shape[0]) * np.ones_like(X),
                          grid, label="level-dependent")
