import math

import numpy as np
import pytest

from actionlab.convex import Indicator, Quadratic
from actionlab.errors import ConfigError, DimensionMismatchError
from actionlab.minimize import closed_form_value
from actionlab.oracle import GridSpec, grid_oracle, speed_quantization_bias
from actionlab.sets import Ball, Box

ZERO_1D = Quadratic(np.zeros((1, 1)), np.zeros(1), 0.0)
ZERO_2D = Quadratic(np.zeros((2, 2)), np.zeros(2), 0.0)
HALF_SQ = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)


def test_gridspec_validation():
    with pytest.raises(ConfigError):
        GridSpec([0.0, 0.0], [1.0], (4, 4))
    with pytest.raises(ConfigError):
        GridSpec([0.0], [0.0], (4,))
    with pytest.raises(ConfigError):
        GridSpec([0.0], [1.0], (0,))
    g = GridSpec([0.0, -1.0], [2.0, 1.0], (4, 8))
    np.testing.assert_allclose(g.spacing, [0.5, 0.25])
    assert g.dim == 2


def test_free_particle_is_exact_on_aligned_grid():
    # 2 cells per step reproduces constant unit speed with no quantization
    grid = GridSpec([0.0], [1.0], (16,))
    val = grid_oracle(ZERO_1D, [0.0], [1.0], 1.0, grid, 8)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_quadratic_matches_transcendental_value():
    grid = GridSpec([0.0], [2.5], (200,))
    want = closed_form_value("quadratic_1d", a=1.0, b=2.0, delta=1.0)
    bias = speed_quantization_bias(grid, 40, 1.0)
    val = grid_oracle(HALF_SQ, [1.0], [2.0], 1.0, grid, 40, reach=5)
    assert abs(val - want) <= 0.05 * want + bias
    # the layered relaxation may undershoot only by the quantization allowance
    assert val >= want - bias - 0.05 * want


def test_speed_quantization_bias_formula():
    grid = GridSpec([0.0], [2.5], (200,))
    q = grid.spacing[0] * 40 / 1.0
    assert speed_quantization_bias(grid, 40, 1.0) == pytest.approx(q * q / 4.0)
    g2 = GridSpec([0.0, 0.0], [1.0, 2.0], (10, 10))
    expect = ((0.1 * 5 / 2.0) ** 2 + (0.2 * 5 / 2.0) ** 2) / 4.0 * 2.0
    assert speed_quantization_bias(g2, 5, 2.0) == pytest.approx(expect)


def test_obstacle_forces_detour():
    grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (20, 20))
    free = grid_oracle(ZERO_2D, [-1.0, 0.0], [1.0, 0.0], 1.0, grid, 10)
    assert free == pytest.approx(4.0, abs=1e-9)
    blocked = grid_oracle(ZERO_2D, [-1.0, 0.0], [1.0, 0.0], 1.0, grid, 10,
                          obstacle=Ball(np.zeros(2), 0.35))
    assert np.isfinite(blocked)
    assert blocked > free + 0.1


def test_obstacle_on_endpoint_gives_infinite_cost():
    grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (10, 10))
    val = grid_oracle(ZERO_2D, [-1.0, 0.0], [1.0, 0.0], 1.0, grid, 10,
                      obstacle=Ball(np.array([1.0, 0.0]), 0.2))
    assert val == np.inf


@pytest.mark.parametrize("f, grid, obstacle", [
    (HALF_SQ, GridSpec([-1.0], [2.0], (6,)), Ball(np.zeros(2), 0.1)),
    (ZERO_2D, GridSpec([-1.0, -1.0], [1.0, 1.0], (4, 4)), Box([-0.1], [0.1])),
], ids=["2d-ball-on-1d-grid", "1d-box-on-2d-grid"])
def test_obstacle_of_another_dimension_is_rejected(f, grid, obstacle):
    # broadcasting the half-grid points against the obstacle would otherwise
    # return a number
    with pytest.raises(DimensionMismatchError, match="obstacle"):
        grid_oracle(f, grid.lo, grid.hi, 1.0, grid, 4, obstacle=obstacle)


def test_indicator_blocks_through_slope_table():
    # indicator of a ball: outside nodes carry infinite slope, so a start
    # outside the region is unreachable
    f = Indicator(Ball(np.zeros(1), 0.5))
    grid = GridSpec([-1.0], [1.0], (20,))
    val = grid_oracle(f, [0.9], [0.0], 1.0, grid, 10)
    assert val == np.inf
    # 10 cells in 10 steps is representable exactly at uniform speed
    inside = grid_oracle(f, [-0.5], [0.5], 1.0, grid, 10)
    assert inside == pytest.approx(closed_form_value("free", delta=1.0,
                                                     displacement=[1.0]),
                                   abs=1e-9)


def test_dimension_and_budget_errors():
    with pytest.raises(ConfigError):
        grid_oracle(ZERO_1D, [0.0], [1.0], 1.0,
                    GridSpec([0.0] * 3, [1.0] * 3, (4, 4, 4)), 4)
    with pytest.raises(DimensionMismatchError):
        grid_oracle(ZERO_1D, [0.0, 0.0], [1.0, 1.0], 1.0,
                    GridSpec([0.0, 0.0], [1.0, 1.0], (4, 4)), 4)
    with pytest.raises(ConfigError):
        grid_oracle(ZERO_1D, [0.0], [1.0], 1.0, GridSpec([0.0], [1.0], (16,)),
                    8, node_budget=10)
    with pytest.raises(ConfigError):
        grid_oracle(ZERO_1D, [0.003], [1.0], 1.0,
                    GridSpec([0.0], [1.0], (16,)), 8)
    with pytest.raises(ConfigError):
        grid_oracle(ZERO_1D, [0.0], [1.0], -1.0,
                    GridSpec([0.0], [1.0], (16,)), 8)
    with pytest.raises(ConfigError):
        grid_oracle(ZERO_1D, [0.0], [1.0], 1.0,
                    GridSpec([0.0], [1.0], (16,)), 8, reach=0)


def test_oracle_is_deterministic():
    grid = GridSpec([0.0], [2.5], (100,))
    a = grid_oracle(HALF_SQ, [1.0], [2.0], 1.0, grid, 20, reach=4)
    b = grid_oracle(HALF_SQ, [1.0], [2.0], 1.0, grid, 20, reach=4)
    assert a == b
