"""Convex regions with exact membership tests and closed-form projections.

Boxes and halfspaces use exact inequality comparisons for membership; the ball
allows a 1e-12 relative slack on the radius so that points produced by its own
projection always test as members.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, as_point, frozen, real_number, real_vector

BALL_REL_TOL = 1e-12


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", frozen(real_vector(self.center, "ball center")))
        object.__setattr__(self, "radius",
                           real_number(self.radius, "ball radius", positive=True))

    @property
    def dim(self) -> int:
        return self.center.size

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        dist = np.linalg.norm(X - self.center, axis=-1)
        return dist <= self.radius * (1.0 + BALL_REL_TOL)

    def project_many(self, X: np.ndarray) -> np.ndarray:
        diff = X - self.center
        dist = np.linalg.norm(diff, axis=-1, keepdims=True)
        safe = np.where(dist > 0, dist, 1.0)
        scale = np.where(dist > self.radius, self.radius / safe, 1.0)
        return self.center + diff * scale

    def project_jacobian_many(self, X: np.ndarray) -> np.ndarray:
        """Jacobian of the projection per row: I inside, and
        (radius/dist)(I - u u^T) outside, u the unit direction from the center."""
        diff = X - self.center
        dist = np.linalg.norm(diff, axis=-1)
        out = dist > self.radius
        J = np.broadcast_to(np.eye(self.dim), X.shape + (self.dim,)).copy()
        U = diff[out] / dist[out, None]
        J[out] = (self.radius / dist[out])[:, None, None] * (
            np.eye(self.dim) - U[:, :, None] * U[:, None, :])
        return J

    def distance_many(self, X: np.ndarray) -> np.ndarray:
        dist = np.linalg.norm(X - self.center, axis=-1)
        return np.maximum(dist - self.radius, 0.0)


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", frozen(real_vector(self.lo, "box lo")))
        object.__setattr__(self, "hi", frozen(real_vector(self.hi, "box hi")))
        if self.lo.size != self.hi.size:
            raise ConfigError("box corners must share a dimension")
        if not np.all(self.lo <= self.hi):
            raise ConfigError("box requires lo <= hi componentwise")

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        return np.all((X >= self.lo) & (X <= self.hi), axis=-1)

    def project_many(self, X: np.ndarray) -> np.ndarray:
        return np.clip(X, self.lo, self.hi)

    def project_jacobian_many(self, X: np.ndarray) -> np.ndarray:
        """Jacobian of the projection per row: 1 on the diagonal for each
        coordinate inside its interval, 0 for a clamped one."""
        inside = (X >= self.lo) & (X <= self.hi)
        return np.eye(self.dim) * inside[:, None, :]

    def distance_many(self, X: np.ndarray) -> np.ndarray:
        return np.linalg.norm(X - self.project_many(X), axis=-1)


@dataclass(frozen=True)
class Halfspace:
    """Region {x : <normal, x> <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal",
                           frozen(real_vector(self.normal, "halfspace normal")))
        object.__setattr__(self, "offset", real_number(self.offset, "halfspace offset"))
        if np.linalg.norm(self.normal) == 0.0:
            raise ConfigError("halfspace normal must be nonzero")

    @property
    def dim(self) -> int:
        return self.normal.size

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        return X @ self.normal <= self.offset

    def project_many(self, X: np.ndarray) -> np.ndarray:
        # Membership is exact, and the dot product below rounds differently
        # for different array shapes (BLAS picks shape-dependent kernels), so
        # a bare closed-form projection can test outside by an ulp later.
        # Any row within a few ulps of the wall is pushed strictly inside by
        # a pad wide enough to absorb kernel-to-kernel rounding.
        resid = X @ self.normal - self.offset
        scale = np.abs(X) @ np.abs(self.normal) + abs(self.offset)
        margin = 8.0 * np.spacing(scale)
        move = resid > -margin
        if not np.any(move):
            return X.copy()
        nn = self.normal @ self.normal
        corr = np.where(move, np.maximum(resid, 0.0) + 2.0 * margin, 0.0)
        return X - (corr / nn)[..., None] * self.normal

    def project_jacobian_many(self, X: np.ndarray) -> np.ndarray:
        """Jacobian of the projection per row: I inside, I - n n^T/|n|^2
        outside."""
        n = self.normal
        out = X @ n > self.offset
        return np.eye(self.dim) - out[:, None, None] * (np.outer(n, n) / (n @ n))

    def distance_many(self, X: np.ndarray) -> np.ndarray:
        excess = np.maximum(X @ self.normal - self.offset, 0.0)
        return excess / np.linalg.norm(self.normal)


ConvexRegion = Ball | Box | Halfspace


def contains(region: ConvexRegion, x: np.ndarray) -> bool:
    return bool(region.contains_many(as_point(x, region.dim, "point")[None, :])[0])


def project(region: ConvexRegion, x: np.ndarray) -> np.ndarray:
    return region.project_many(as_point(x, region.dim, "point")[None, :])[0]
