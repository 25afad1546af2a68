"""Minimum-norm points of convex hulls of finitely many vectors, many at once.

Wolfe's algorithm (Wolfe 1976, Math. Programming 11): keep a corral of hull
vertices, solve the affine minimum-norm subproblem over it, and add the most
improving vertex until the gap |x|^2 - min_i <p_i, x> certifies the point:
for any hull point x and the optimum x*, |x - x*|^2 <= that gap.  All rows
run in lockstep, each on the points an optional (k, m) mask allows it, with
a padded corral of at most d + 1 indices; each minor cycle solves the corral
systems of its rows with one batched `np.linalg.solve`.  A row leaves at gap
<= 1e-14 (1 + max_j |p_j|^2), when its most improving vertex is already in
its corral (stalled at noise level), or at the iteration cap, with the gap
of its final point.  In one dimension the answer is the exact clip of the
origin into the interval.  Callers: `MaxLinear.prox_many` and the start of
`LogSumExp.prox_many` for d >= 3, all ties of three or more vectors in
`MaxLinear.subgradient_many` (one masked call), and `verify`'s Moreau
decomposition oracle, whose d <= 2 functions resolve in closed form.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, real_points, real_vectors, whole_number

_DROP_TOL = 1e-14
_COEFF_TOL = 1e-12


def _affine_weights(Pc: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Weights a, sum(a) = 1, of the min-norm point of each corral's affine
    hull: Pc (n, s, d) holds the corral points, zero in slots `used` leaves
    out, where identity rows pad the KKT system [G 1; 1^T 0] (G = Pc Pc^T,
    scaled to a unit diagonal maximum).  Singular systems (duplicated or
    affinely dependent points) take the least-squares solution."""
    n, s, _ = Pc.shape
    G = Pc @ Pc.transpose(0, 2, 1)
    scale = G.diagonal(axis1=1, axis2=2).max(axis=1)
    M = np.zeros((n, s + 1, s + 1))
    M[:, :s, :s] = G / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    M[:, :s, s] = M[:, s, :s] = used
    diag = np.arange(s)
    M[:, diag, diag] += ~used
    rhs = np.zeros((n, s + 1, 1))
    rhs[:, s] = 1.0
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        sol = np.full_like(rhs, np.nan)
    bad = ~np.isfinite(sol).all(axis=(1, 2))
    if bad.any():
        sol[bad] = np.linalg.pinv(M[bad]) @ rhs[bad]
    return sol[:, :s, 0]


def _min_norm_rows(A: np.ndarray, Z: np.ndarray, mask=None,
                   max_iter=None) -> tuple[np.ndarray, np.ndarray]:
    """Min-norm points q_i of conv{a_j - z_i : mask[i, j]} and their gaps."""
    (k, d), m = Z.shape, A.shape[0]
    mask = np.ones((k, m), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != (k, m) or not mask.any(axis=1).all():
        raise ConfigError(f"mask must be a ({k}, {m}) boolean array "
                          "allowing a point in every row")
    if d == 1:
        Q = A[:, 0] - Z
        lo = np.where(mask, Q, np.inf).min(axis=1)
        hi = np.where(mask, Q, -np.inf).max(axis=1)
        q = np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))
        return q[:, None], np.zeros(k)

    def improving(rows, X):
        # the gap |x|^2 - min_j <a_j - z, x> and the vertex attaining it
        dots = np.where(mask[rows], X @ A.T, np.inf) - np.einsum(
            "ij,ij->i", X, Z[rows])[:, None]
        j = dots.argmin(axis=1)
        return np.einsum("ij,ij->i", X, X) - dots[np.arange(rows.size), j], j

    norms2 = (np.einsum("ij,ij->i", A, A) - 2.0 * (Z @ A.T)
              + np.einsum("ij,ij->i", Z, Z)[:, None])
    far = np.maximum(np.where(mask, norms2, 0.0).max(axis=1), 0.0)
    tol = 1e-14 * (1.0 + far)
    S = min(m, d + 1)
    idx = np.zeros((k, S), dtype=np.intp)
    idx[:, 0] = np.where(mask, norms2, np.inf).argmin(axis=1)
    used = np.arange(S) == np.zeros((k, 1))  # corral slots in use
    W = used * 1.0
    X = A[idx[:, 0]] - Z
    gaps = np.zeros(k)
    live = np.arange(k)
    cap = 100 + 16 * m if max_iter is None else whole_number(max_iter, "max_iter")
    for _ in range(cap):
        gaps[live], j = improving(live, X[live])
        u = used[live]
        seen = ((idx[live] == j[:, None]) & u).any(axis=1)
        go = (gaps[live] > tol[live]) & ~seen & ~u.all(axis=1)
        live, j = live[go], j[go]
        if live.size == 0:
            break
        free = used[live].argmin(axis=1)
        idx[live, free] = j
        used[live, free] = True
        rows = live
        while rows.size:
            # move each row's weights toward its affine minimizer until one
            # reaches zero and drop that vertex (the smallest weight if
            # rounding keeps all positive); rows with none blocking are done
            s = S - int(used[rows].any(axis=0)[::-1].argmax())  # slots in use
            u = used[rows, :s]
            Pc = np.where(u[:, :, None], A[idx[rows, :s]] - Z[rows, None, :], 0.0)
            a = _affine_weights(Pc, u)
            w = W[rows, :s]
            blocking = u & (a <= _COEFF_TOL)
            step = blocking & (w > a)
            ratio = np.where(step, w, np.inf) / np.where(step, w - a, 1.0)
            theta = np.minimum(1.0, ratio.min(axis=1))[:, None]
            w = np.maximum((1.0 - theta) * w + theta * a, 0.0)
            keep = u & (w > _DROP_TOL)
            blocked = blocking.any(axis=1)
            full = blocked & (keep == u).all(axis=1)
            keep[full, np.where(u, w, np.inf)[full].argmin(axis=1)] = False
            w = np.where(keep, w, 0.0)
            W[rows, :s] = w = w / w.sum(axis=1, keepdims=True)
            used[rows, :s] = keep
            X[rows] = np.einsum("ns,nsd->nd", w, Pc)
            rows = rows[blocked]
    if live.size:
        gaps[live] = improving(live, X[live])[0]  # the cap's honest gap
    return X, np.maximum(gaps, 0.0)


def min_norm_point_with_gap(points, *, mask=None, max_iter: int | None = None):
    """Minimum-norm point of conv{points} plus the certified duality gap;
    with a (k, m) boolean `mask`, (k, d) points and (k,) gaps, row i over the
    points that mask[i] allows."""
    P = real_vectors(points, "hull points")
    k = 1 if mask is None else np.atleast_2d(mask).shape[0]
    Q, gaps = _min_norm_rows(P, np.zeros((k, P.shape[1])), mask, max_iter)
    return (Q[0], float(gaps[0])) if mask is None else (Q, gaps)


def min_norm_point(points, **options) -> np.ndarray:
    return min_norm_point_with_gap(points, **options)[0]


def hull_projection_with_gap(points, z):
    """Projection of z onto conv{points}: z + argmin |q| over conv{points - z}.

    z is one point (d,) or a batch (k, d); a batch gives (k, d) projections
    and (k,) gaps.
    """
    P = real_vectors(points, "hull points")
    single = np.ndim(z) <= 1
    Z = real_points(z, P.shape[1])
    Q, gaps = _min_norm_rows(P, Z)
    Y = Z + Q
    return (Y[0], float(gaps[0])) if single else (Y, gaps)


def hull_projection(points, z) -> np.ndarray:
    return hull_projection_with_gap(points, z)[0]
