"""Minimum-norm point of a convex hull of finitely many vectors.

Wolfe's algorithm: maintain a corral of hull vertices, repeatedly solve the
affine minimum-norm subproblem over the corral, and add the most improving
vertex until the duality gap |x|^2 - min_i <p_i, x> certifies optimality.
The exit is certified: for any hull point x and the optimum x*,
|x - x*|^2 <= |x|^2 - min_i <p_i, x>.

In dimension one the hull is an interval and the answer is the exact clip of
the origin into [min a_i, max a_i]; the iteration only runs for d >= 2.

Callers: `MaxLinear.prox_many` projects row by row through Wolfe for d >= 3
only (d = 2 has a closed-form hull projection in `convex.py`),
`MaxLinear.subgradient_many` resolves ties of three or more vectors through
it (a two-vector tie is a closed-form segment projection), and
`verify` uses it as the independent oracle of the Moreau decomposition check.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError

_DROP_TOL = 1e-14
_COEFF_TOL = 1e-12


def _as_points(points) -> np.ndarray:
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    if P.ndim != 2 or P.shape[0] == 0:
        raise ConfigError("need a nonempty 2-D array of points")
    if not np.all(np.isfinite(P)):
        raise ConfigError("hull points must be finite")
    return P


def _affine_coeffs(A: np.ndarray) -> np.ndarray:
    """Coefficients of the min-norm point of the affine hull of the rows of A.

    Solves  G a + nu 1 = 0, sum(a) = 1  with G = A A^T via least squares so
    rank-deficient corrals (duplicated or affinely dependent rows) stay stable.
    """
    k = A.shape[0]
    if k == 1:
        return np.ones(1)
    G = A @ A.T
    M = np.zeros((k + 1, k + 1))
    M[:k, :k] = G
    M[:k, k] = 1.0
    M[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return sol[:k]


def _wolfe(P: np.ndarray, gap_tol: float, max_iter: int) -> tuple[np.ndarray, float, int]:
    m = P.shape[0]
    norms2 = np.einsum("ij,ij->i", P, P)
    start = int(np.argmin(norms2))
    corral = [start]
    weights = np.ones(1)
    x = P[start].copy()

    iters = 0
    for _ in range(max_iter):
        iters += 1
        dots = P @ x
        xx = float(x @ x)
        j = int(np.argmin(dots))
        gap = xx - float(dots[j])
        if gap <= gap_tol or j in corral:
            # optimal, or numerically stalled with the gap at noise level
            return x, max(gap, 0.0), iters
        corral.append(j)
        weights = np.append(weights, 0.0)

        while True:
            A = P[corral]
            alpha = _affine_coeffs(A)
            if np.all(alpha > _COEFF_TOL):
                weights = alpha / alpha.sum()
                x = weights @ A
                break
            blocking = np.where(alpha <= _COEFF_TOL)[0]
            denom = weights[blocking] - alpha[blocking]
            ratios = np.where(denom > 0, weights[blocking] / np.where(denom > 0, denom, 1.0), 1.0)
            theta = min(1.0, float(ratios.min()))
            weights = (1.0 - theta) * weights + theta * alpha
            weights = np.maximum(weights, 0.0)
            keep = weights > _DROP_TOL
            if keep.all():
                keep[int(np.argmin(weights))] = False
            if not keep.any():
                keep[int(np.argmax(weights))] = True
            corral = [corral[i] for i in range(len(corral)) if keep[i]]
            weights = weights[keep]
            weights = weights / weights.sum()
            x = weights @ P[corral]

    dots = P @ x
    gap = float(x @ x) - float(dots.min())
    return x, max(gap, 0.0), iters


def min_norm_point_with_gap(points, *, gap_tol: float | None = None,
                            max_iter: int | None = None) -> tuple[np.ndarray, float]:
    """Minimum-norm point of conv{points} plus the certified duality gap."""
    P = _as_points(points)
    m, d = P.shape
    if d == 1:
        lo = float(P.min())
        hi = float(P.max())
        if lo <= 0.0 <= hi:
            val = 0.0
        else:
            val = lo if lo > 0.0 else hi
        return np.array([val]), 0.0
    if m == 1:
        return P[0].copy(), 0.0
    scale2 = float(np.einsum("ij,ij->i", P, P).max())
    if scale2 == 0.0:
        return np.zeros(d), 0.0
    if gap_tol is None:
        gap_tol = 1e-14 * (1.0 + scale2)
    if max_iter is None:
        max_iter = 100 + 16 * m
    x, gap, _ = _wolfe(P, gap_tol, max_iter)
    return x, gap


def min_norm_point(points, *, gap_tol: float | None = None,
                   max_iter: int | None = None) -> np.ndarray:
    x, _ = min_norm_point_with_gap(points, gap_tol=gap_tol, max_iter=max_iter)
    return x


def hull_projection_with_gap(points, z) -> tuple[np.ndarray, float]:
    """Projection of z onto conv{points}: z + argmin |q| over conv{points - z}."""
    P = _as_points(points)
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        z = z[None]
    if z.shape != (P.shape[1],):
        raise ConfigError("projection target has the wrong dimension")
    q, gap = min_norm_point_with_gap(P - z)
    return z + q, gap


def hull_projection(points, z) -> np.ndarray:
    p, _ = hull_projection_with_gap(points, z)
    return p
