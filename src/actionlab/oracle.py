"""Brute-force lower-level oracle: shortest path in a time-expanded grid graph.

Deterministic dynamic programming over T layers of a regular spatial grid
(d <= 2).  An edge from node u in layer k to node v = u + shift in layer k+1
costs  dt |dx/dt|^2 + dt * slope^2(f, midpoint), midpoints living on the
half-spacing refinement so the slope table is evaluated once.  Ties keep the
first-encountered predecessor in lexicographic shift order, so reruns are
byte-identical.  The result upper-bounds the discretized minimal action and
converges as the resolutions grow.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .convex import ConvexFunction
from .errors import (ConfigError, DimensionMismatchError, as_point, frozen,
                     real_number, real_vector, whole_number)
from .sets import ConvexRegion

_SNAP_TOL = 1e-6   # largest distance from an endpoint to its grid node


@dataclass(frozen=True)
class GridSpec:
    lo: np.ndarray
    hi: np.ndarray
    cells: tuple[int, ...]

    def __post_init__(self):
        lo = frozen(real_vector(self.lo, "grid lo"))
        hi = frozen(real_vector(self.hi, "grid hi"))
        cells = tuple(whole_number(c, "cells")
                      for c in np.atleast_1d(self.cells).tolist())
        if lo.shape != hi.shape:
            raise ConfigError("grid corners must be matching vectors")
        if len(cells) != lo.size:
            raise ConfigError("cells must give one count per dimension")
        if not np.all(hi > lo):
            raise ConfigError("grid needs hi > lo componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "cells", cells)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / np.asarray(self.cells, dtype=float)


def _mesh(axes: list[np.ndarray]) -> np.ndarray:
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _snap(x: np.ndarray, grid: GridSpec, name: str) -> tuple[int, ...]:
    h = grid.spacing
    idx = np.rint((x - grid.lo) / h).astype(int)
    if np.any(idx < 0) or np.any(idx > np.asarray(grid.cells)):
        raise ConfigError(f"{name} lies outside the grid box")
    snapped = grid.lo + idx * h
    if np.linalg.norm(snapped - x) > _SNAP_TOL:
        raise ConfigError(
            f"{name} is {np.linalg.norm(snapped - x):.3e} from the nearest grid node "
            f"(snap tolerance {_SNAP_TOL:.3e})")
    return tuple(int(i) for i in idx)


def grid_oracle(f: ConvexFunction, x0, xd, delta: float, grid: GridSpec,
                time_steps: int, *, reach: int = 2, node_budget: int = 4_000_000,
                obstacle: ConvexRegion | None = None) -> float:
    """Shortest-path cost from x0 to xd through the time-expanded grid.

    `reach` caps the per-coordinate index shift per time step.  An optional
    obstacle region removes its grid nodes and edge midpoints from the graph
    (feasible region = complement of the obstacle).  Returns +inf when no
    feasible path exists.
    """
    if grid.dim > 2:
        raise ConfigError("grid oracle supports dimensions 1 and 2 only")
    if f.dim != grid.dim:
        raise DimensionMismatchError("function and grid dimension differ")
    if obstacle is not None:
        if not isinstance(obstacle, ConvexRegion):
            raise ConfigError(f"obstacle must be a Ball, Box or Halfspace, "
                              f"got {type(obstacle).__name__}")
        if obstacle.dim != grid.dim:
            raise DimensionMismatchError("obstacle and grid dimension differ")
    time_steps = whole_number(time_steps, "time_steps")
    reach = whole_number(reach, "reach")
    node_budget = whole_number(node_budget, "node_budget")
    delta = real_number(delta, "delta", positive=True)
    x0 = as_point(x0, grid.dim, "x0")
    xd = as_point(xd, grid.dim, "xd")

    counts = tuple(c + 1 for c in grid.cells)
    n_nodes = int(np.prod(counts))
    if n_nodes * time_steps > node_budget:
        raise ConfigError(
            f"graph size {n_nodes * time_steps} exceeds node budget {node_budget}")

    start = _snap(x0, grid, "x0")
    end = _snap(xd, grid, "xd")

    h = grid.spacing
    dt = delta / time_steps

    # slope^2 on the half-spacing refinement; full-grid nodes sit at even indices
    half_axes = [grid.lo[j] + 0.5 * h[j] * np.arange(2 * grid.cells[j] + 1)
                 for j in range(grid.dim)]
    half_points = _mesh(half_axes)
    sl = f.slope_many(half_points)
    sl2 = (sl.astype(float) ** 2).reshape([2 * c + 1 for c in grid.cells])
    if obstacle is not None:
        blocked_half = obstacle.contains_many(half_points).reshape(sl2.shape)
        sl2 = np.where(blocked_half, np.inf, sl2)

    node_sl2 = sl2[tuple(slice(None, None, 2) for _ in range(grid.dim))]
    node_blocked = ~np.isfinite(node_sl2)

    cost = np.full(counts, np.inf)
    if node_blocked[start] or node_blocked[end]:
        return np.inf
    cost[start] = 0.0

    shifts = list(itertools.product(range(-reach, reach + 1), repeat=grid.dim))
    for _ in range(time_steps):
        nxt = np.full(counts, np.inf)
        for s in shifts:
            u_sl, v_sl, m_sl = [], [], []
            for j, sj in enumerate(s):
                u_lo = max(0, -sj)
                u_hi = counts[j] - max(0, sj)
                u_sl.append(slice(u_lo, u_hi))
                v_sl.append(slice(u_lo + sj, u_hi + sj))
                m_sl.append(slice(2 * u_lo + sj, 2 * u_hi + sj - 1, 2))
            kin = float(sum((sj * h[j]) ** 2 for j, sj in enumerate(s))) / dt
            candidate = cost[tuple(u_sl)] + kin + dt * sl2[tuple(m_sl)]
            region = nxt[tuple(v_sl)]
            np.minimum(region, candidate, out=region)
        nxt[node_blocked] = np.inf
        cost = nxt

    return float(cost[end])


def speed_quantization_bias(grid: GridSpec, time_steps: int, delta: float) -> float:
    """Documented kinetic bias of the layered-grid upper bound.

    Per step the displacement is a multiple of the spacing, so velocities are
    quantized with quantum q_j = h_j * T / delta per coordinate; emulating an
    intermediate speed by alternating step counts costs at most q_j^2/4 extra
    kinetic energy per unit time.  Summed over coordinates and the horizon
    this gives the dominant resolution error term.
    """
    time_steps = whole_number(time_steps, "time_steps")
    delta = real_number(delta, "delta", positive=True)
    q = grid.spacing * time_steps / delta
    return float(np.sum(q**2) / 4.0 * delta)
