import numpy as np
import pytest

from gpops.errors import ParameterError
from gpops.grids import Grid


def test_uniform_grid():
    g = Grid.uniform_on(0.0, 1.0, 33)
    assert len(g) == 33
    np.testing.assert_allclose(np.diff(g.points), 1.0 / 32.0, rtol=1e-12)


def test_single_point_grid_allowed():
    g = Grid([0.0])
    assert len(g) == 1


@pytest.mark.parametrize("pts", [
    [],                     # empty
    [0.0, 0.0],             # not strictly increasing
    [1.0, 0.5],             # decreasing
    [0.0, np.nan],          # non-finite
    [0.0, np.inf],
])
def test_invalid_grids_rejected(pts):
    with pytest.raises(ParameterError):
        Grid(pts)


def test_points_are_read_only():
    g = Grid.uniform_on(0, 1, 5)
    with pytest.raises(ValueError):
        g.points[0] = 7.0
