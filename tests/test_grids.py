import numpy as np
import pytest

from levybridge.grids import TimeGrid


def test_uniform_grid_endpoints_exact():
    g = TimeGrid.uniform(1.0, 512)
    assert g.points[0] == 0.0
    assert g.points[-1] == 1.0
    assert g.n_steps == 512


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5, 1.0]))  # must start at 0
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))  # not strictly increasing
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]))  # too short
    with pytest.raises(ValueError):
        TimeGrid.uniform(0.0, 10)


def test_two_point_grid_is_valid():
    g = TimeGrid(np.array([0.0, 1.0]))
    assert g.horizon == 1.0


def test_symmetry_detection():
    assert TimeGrid.uniform(2.0, 64).is_symmetric()
    assert not TimeGrid(np.array([0.0, 0.2, 0.5, 1.0])).is_symmetric()


def test_index_and_snapping():
    g = TimeGrid.uniform(1.0, 10)
    assert g.index_of(0.3) == 3
    with pytest.raises(ValueError):
        g.index_of(0.31)
    assert g.snap_below(0.349999) == 3
    assert g.snap_below(0.35) == 3
    assert g.snap_below(1.0) == 10
    # snapping is tolerant to float dust on the grid points themselves
    np.testing.assert_array_equal(g.snap_below([0.05, 0.7, 1.0]), [0, 7, 10])
    np.testing.assert_array_equal(g.snap_below(g.points), np.arange(11))



@pytest.mark.parametrize("lookup, t", [("index_of", np.nan), ("snap_below", np.nan),
                                       ("snap_below", np.array([0.3, np.nan]))])
def test_grid_lookups_reject_nan(lookup, t):
    with pytest.raises(ValueError):
        getattr(TimeGrid.uniform(1.0, 10), lookup)(t)
