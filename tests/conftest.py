import numpy as np
import pytest
from hypothesis import settings

from riccilab.geometry import Grid2D, conformal_metric, flat_metric, warped_metric
from riccilab.scenario import FormSpec, make_scenario

# property tests draw the same examples on every run and have no per-example
# deadline: tier-1 runs on shared hosts
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def torus64():
    return Grid2D.torus(64, 64)


@pytest.fixture
def flat64(torus64):
    return flat_metric(torus64)


@pytest.fixture
def neck_grid():
    # odd node count puts a node exactly on the neck at x = 0
    return Grid2D.cylinder(257, 32, 20.0)


@pytest.fixture
def neck_metric(neck_grid):
    x = neck_grid.x
    return warped_metric(neck_grid, np.ones_like(x), 2.0 - np.exp(-x ** 2))


@pytest.fixture
def cigar_grid():
    return Grid2D.plane(129, 129, 12.0, 12.0)


@pytest.fixture
def cigar_metric(cigar_grid):
    X, T = cigar_grid.mesh()
    return conformal_metric(cigar_grid, -0.5 * np.log1p(X ** 2 + T ** 2))


@pytest.fixture(scope="session")
def many_snapshots_spec():
    # ~100 form-carrying snapshots of a 16² conformal torus, one per step
    return make_scenario(name="many", family="conformal-torus", nx=16, ny=16,
                         forms=[FormSpec("main", "dtheta")], t_final=3.0, cadence=1,
                         snapshot_every=1)
