"""Lambda-convex function kinds and their proximal calculus.

Each kind is a frozen dataclass that knows its value, metric slope,
minimal-norm subgradient, and resolvent (proximal map) J_tau, where

    J_tau(x) = argmin_y  f(y) + |y - x|^2 / (2 tau),

admissible whenever tau > 0 and 1 + tau*lambda > 0.  The envelope value is
f(J_tau(x)) + |x - J_tau(x)|^2/(2 tau) and its gradient is (x - J_tau(x))/tau.

Values of +inf are legal (indicator outside its region) and propagate through
arithmetic; operations that need a finite subgradient raise instead.  Batched
`*_many` methods take (k, d) arrays and are the primitives; `prox_many` and
`envelope_derivatives_many` take tau as a scalar or as a (k,) array with one
tau per row, so a sweep over (tau, x) pairs is one call; the free functions at
the bottom are the scalar-call surface.  Short reductions run across rows
(`_row_reduce`): bit-equal for max, min, logical ops and sums under 8 terms.
The log_sum_exp kernels go further: they work component-major, on (d, k)
points and (m, k) weights, each per-row formula on contiguous rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InadmissibleTauError,
    OutsideDomainError,
    SolverError,
    as_point,
    frozen,
    real_array,
    real_number,
    real_points,
    real_vectors,
    whole_number,
)
from .minnorm import hull_projection_with_gap, min_norm_point
from .sets import Ball, Box, ConvexRegion, Halfspace

ACTIVE_TOL = 1e-9       # relative active-set tolerance for piecewise-linear slopes
_NEWTON_TOL = 1e-11     # absolute scale for the smoothed-max resolvent residual
_NEWTON_CAP = 60


def _tau_number(tau) -> float:
    try:
        return float(tau)
    except (TypeError, ValueError):
        raise InadmissibleTauError(f"tau must be a number, got {tau!r}") from None


def _check_admissible(t, lam: float) -> None:
    """Raise InadmissibleTauError unless every tau in t (a number or an array)
    is positive and finite with 1 + tau*lambda > 1e-12."""
    if isinstance(t, float):
        # one tau, checked without numpy's per-call overhead
        if not (math.isfinite(t) and t > 0.0):
            raise InadmissibleTauError("tau must be positive and finite")
        if 1.0 + t * lam <= 1e-12:
            raise InadmissibleTauError(
                f"tau={t} violates 1 + tau*lambda > 0 for lambda={lam}")
        return
    if not np.all(np.isfinite(t) & (t > 0.0)):
        raise InadmissibleTauError("tau must be positive and finite")
    bad = np.atleast_1d(t)[np.atleast_1d(1.0 + t * lam <= 1e-12)]
    if bad.size:
        raise InadmissibleTauError(
            f"tau={bad[0]} violates 1 + tau*lambda > 0 for lambda={lam}")


def tau_cap(lam: float) -> float:
    """The largest tau the defaults use for modulus lam: where 1 + tau*lam =
    0.55 when lam < 0, a margin inside admissibility, and +inf otherwise."""
    return 0.45 / -lam if lam < 0 else math.inf


def _tau_rows(tau, k: int, lam: float, ndim: int = 1):
    """tau for k rows, from one tau for every row (returned as a float) or a
    (k,) array of one tau per row (returned as a column of ndim axes, to
    broadcast against k rows).  Every tau must be admissible for lambda."""
    if isinstance(tau, (int, float)):
        tau = float(tau)
    else:
        try:
            t = np.asarray(tau, dtype=float)
        except (TypeError, ValueError):
            raise InadmissibleTauError(f"tau must be a number or an array of numbers, "
                                       f"got {tau!r}") from None
        if t.ndim != 0 and t.shape != (k,):
            raise DimensionMismatchError(
                f"tau has shape {t.shape}, expected a scalar or ({k},) for {k} rows")
        tau = float(t) if t.ndim == 0 else t.reshape((k,) + (1,) * (ndim - 1))
    _check_admissible(tau, lam)
    return tau


def _solve_columns(M: np.ndarray, R: np.ndarray | None = None) -> np.ndarray:
    """M^-1 R per block, or M^-1 when R is None, for blocks laid out
    component-major: M (d, d, k) and R (d, k), the last axis the block; 1x1
    and 2x2 blocks in closed form on rows, which is several times faster than
    a batched LAPACK call on blocks this small."""
    d = len(M)
    if d == 1:
        return 1.0 / M if R is None else R / M[0]
    if d == 2:
        a, b, c, e = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
        return np.array([[e, -b], [-c, a]] if R is None else
                        [e * R[0] - b * R[1], a * R[1] - c * R[0]]) / (a * e - b * c)
    M = M.transpose(2, 0, 1)
    return (np.linalg.inv(M).transpose(1, 2, 0) if R is None
            else np.linalg.solve(M, R.T[..., None])[..., 0].T)


def _column_norms(R: np.ndarray) -> np.ndarray:
    return np.sqrt((R * R).sum(axis=0))


def _row_reduce(ufunc, A: np.ndarray) -> np.ndarray:
    """ufunc.reduce(A, axis=1) bit for bit, as m passes over the k rows of a
    transposed copy; a sum of 8 or more terms keeps numpy's pairwise axis=1."""
    if ufunc is np.add and A.shape[1] >= 8:
        return A.sum(axis=1)
    return ufunc.reduce(np.ascontiguousarray(A.T), axis=0)


class ConvexFunction:
    """Common surface for the built-in kinds; subclasses provide the math."""

    lam: float = 0.0
    # the minimizer's tau schedule, times delta: it ends at 0 (on f) where f is
    # C^{1,1}, and is one stage where every |grad f_tau|^2 is convex
    _tau_factors = (0.5, 0.1, 0.02, 0.004)

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def value_many(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def slope_many(self, X: np.ndarray) -> np.ndarray:
        """Metric slope |min-norm subgradient| per row."""
        return np.linalg.norm(self.subgradient_many(X), axis=1)

    def subgradient_many(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prox_many(self, tau, X: np.ndarray,
                  start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Resolvents J_tau of the rows of X and a solver residual per row.

        tau is a scalar or a (k,) array giving row i its own tau; the
        built-in kinds read both with `_tau_rows`.
        Subclasses, including those handed to
        `verify_suite(extra_functions=...)`, must accept both, because the
        verify checks resolve a whole sample block of (tau, x) pairs in one
        call.  An action-scope check resolves all of a function's trials in
        one call: a coarse path is its fine path's even nodes, the endpoint
        residuals are rows of the same batch, as are all recovery core nodes.

        start, when given, is a (k, d) guess of the resolvents.  A kind whose
        resolvent is iterative begins there instead of at its own cold start,
        with the same stop rule and residual, so the answer agrees with the
        cold one to within the two residuals; kinds with a closed-form
        resolvent ignore it.  Subclasses must accept the keyword, because
        `minimize_action` passes it on every line-search trial.
        """
        raise NotImplementedError

    def envelope_derivatives_many(self, tau, X: np.ndarray, Y: np.ndarray
                                  ) -> tuple[np.ndarray, np.ndarray | None]:
        """Envelope derivatives (K, C) at rows X with resolvents Y, one
        symmetric (d, d) block per row each: the Hessian K = (I - DJ_tau)/tau
        of f_tau, and the curvature C = sum_j G_j grad^2 (d_j f_tau) with
        G = (X - Y)/tau = grad f_tau.

        tau is a scalar or a (k,) array of one tau per row, as in `prox_many`;
        subclasses (those handed to `verify_suite` too) must accept both, as
        a lockstep run of family members (`_unit_scale`) passes one per row.

        They are the one derivative route of the smoothed action:
        phi_tau = |G|^2 has gradient 2 K G and Hessian 2 K^2 + 2 C.  Where the
        resolvent is not differentiable K is one of its one-sided values.
        C is None when it is 0: K is constant near every row, as it is for a
        quadratic and wherever the resolvent is piecewise affine, so the
        Gauss-Newton Hessian 2 K^2 is already exact.

        Built-in kinds compute them in `_derivatives` from the checked tau,
        which takes tau = 0 too where f is C^{1,1}: f's own K and C (J_0 = I).
        """
        return self._derivatives(_tau_rows(tau, len(X), self.lam, 3), X)

    def value(self, x) -> float:
        return float(self.value_many(real_points(x, self.dim))[0])

    def require_admissible(self, tau: float, *, envelope_lipschitz: bool = False) -> float:
        tau = _tau_number(tau)
        _check_admissible(tau, self.lam)
        if envelope_lipschitz and 1.0 + tau * self.lam < 0.5 - 1e-12:
            raise InadmissibleTauError(
                f"tau={tau} violates (1 + tau*lambda)^-1 <= 2 for lambda={self.lam}")
        return tau


@dataclass(frozen=True)
class Quadratic(ConvexFunction):
    """f(x) = 0.5 <Qx, x> + <b, x> + c with symmetric Q; lambda = min eig(Q).

    Q = V diag(w) V^T is eigendecomposed once at construction, so
    (I + tau Q)^-1 = V diag(1/(1 + tau w)) V^T costs no solve for any tau.
    """

    Q: np.ndarray
    b: np.ndarray
    c: float = 0.0
    lam: float = field(init=False)
    _tau_factors = (0.0,)       # grad f_tau is affine

    def __post_init__(self):
        Q = real_array(self.Q, "Q")
        if Q.ndim == 0:
            Q = Q[None, None]
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ConfigError("Q must be a square matrix")
        if not np.all(np.isfinite(Q)):
            raise ConfigError("Q must be finite")
        scale = max(1.0, float(np.abs(Q).max()))
        if np.abs(Q - Q.T).max() > 1e-10 * scale:
            raise ConfigError("Q must be symmetric")
        Q = 0.5 * (Q + Q.T)
        b = as_point(self.b, Q.shape[0], "b")
        object.__setattr__(self, "Q", frozen(Q))
        object.__setattr__(self, "b", frozen(b))
        object.__setattr__(self, "c", real_number(self.c, "c"))
        w, V = np.linalg.eigh(Q)
        object.__setattr__(self, "_w", frozen(w))
        object.__setattr__(self, "_V", frozen(V))
        object.__setattr__(self, "lam", float(w.min()))

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def value_many(self, X):
        return 0.5 * np.einsum("ki,ij,kj->k", X, self.Q, X) + X @ self.b + self.c

    def subgradient_many(self, X):
        return X @ self.Q + self.b

    def _inverse_apply(self, t, R):
        # rows of R times (I + t Q)^-1, t a scalar or a (k, 1) column
        V = self._V
        return ((R @ V) / (1.0 + t * self._w)) @ V.T

    def prox_many(self, tau, X, start=None):
        X = real_points(X, self.dim)
        t = _tau_rows(tau, X.shape[0], self.lam, 2)
        Y = self._inverse_apply(t, X - t * self.b)
        residual = np.linalg.norm(Y + t * self.subgradient_many(Y) - X, axis=1)
        return Y, residual

    def _derivatives(self, t, X):
        # (I - (I + t Q)^-1)/t = V diag(w / (1 + t w)) V^T, one per t: Q at t = 0
        V, w = self._V, self._w
        K = (V * (w / (1.0 + t * w))) @ V.T
        return np.broadcast_to(K, (X.shape[0],) + V.shape), None


def _hull_2d(A: np.ndarray) -> np.ndarray:
    """Counter-clockwise vertices of conv{rows of A} by Andrew's monotone chain.

    Returns one row for a point hull, two for a segment (all rows collinear)
    and three or more for a polygon; collinear boundary points are dropped.
    """
    # distinct rows sorted by x, then y (np.unique(axis=0) would import numpy.ma)
    pts = sorted(set(map(tuple, A.tolist())))
    if len(pts) <= 2:
        return np.array(pts)

    def turns_left(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) > 0.0

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and not turns_left(out[-2], out[-1], p):
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return np.array(lower[:-1] + upper[:-1])


def _project_hull_2d(H: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Rows of Z projected onto the hull with counter-clockwise vertices H.

    A row on the left of every edge of a polygon is its own projection; any
    other row goes to the nearest of its clamped projections onto the edges.
    All edges are handled at once, one (rows, edges) array per coordinate.
    """
    if H.shape[0] == 1:
        return np.repeat(H, Z.shape[0], axis=0)
    a = H if H.shape[0] > 2 else H[:1]
    e = (np.roll(H, -1, axis=0) if H.shape[0] > 2 else H[1:]) - a
    W0 = Z[:, :1] - a[:, 0]
    W1 = Z[:, 1:] - a[:, 1]
    t = np.clip((W0 * e[:, 0] + W1 * e[:, 1]) / (e * e).sum(axis=1), 0.0, 1.0)
    P0 = a[:, 0] + t * e[:, 0]
    P1 = a[:, 1] + t * e[:, 1]
    D0 = Z[:, :1] - P0
    D1 = Z[:, 1:] - P1
    rows = np.arange(Z.shape[0])
    nearest = np.argmin(D0 * D0 + D1 * D1, axis=1)
    proj = np.stack([P0[rows, nearest], P1[rows, nearest]], axis=1)
    if H.shape[0] > 2:
        inside = _row_reduce(np.logical_and, e[:, 0] * W1 - e[:, 1] * W0 >= 0.0)
        proj = np.where(inside[:, None], Z, proj)
    return proj


def _set_vectors(f) -> np.ndarray:
    """Read the vectors of a max-linear or smoothed-max kind (`real_vectors`),
    freeze them, and build the hull that d = 2 projects onto."""
    A = real_vectors(f.vectors, "vectors")
    object.__setattr__(f, "vectors", frozen(A))
    if A.shape[1] == 2:
        object.__setattr__(f, "_hull", frozen(_hull_2d(A)))
    return A


def _hull_projection(f, Z):
    """Rows of Z projected onto conv{f.vectors} and Wolfe's exit gaps: a clip
    in one dimension and the closed form onto f's hull in two (gaps None), one
    batched Wolfe solve in three or more."""
    A = f.vectors
    if f.dim == 1:
        return np.clip(Z, float(A.min()), float(A.max())), None
    if f.dim == 2:
        return _project_hull_2d(f._hull, Z), None
    return hull_projection_with_gap(A, Z)


@dataclass(frozen=True)
class MaxLinear(ConvexFunction):
    """f(x) = max_i <a_i, x>, the support function of conv{a_i}; lambda = 0.

    The resolvent goes through the projection onto conv{a_i}: a clip in one
    dimension, a closed-form projection onto the hull built at construction
    in two, and one batched Wolfe solve over all rows in three or more
    (`minnorm`).  The minimal-norm subgradient at a tie of two vectors is the
    closed-form projection of the origin onto their segment; all ties of
    three or more are one masked min-norm call.
    """

    vectors: np.ndarray

    def __post_init__(self):
        _set_vectors(self)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def value_many(self, X):
        return _row_reduce(np.maximum, X @ self.vectors.T)

    def _actives(self, X):
        dots = X @ self.vectors.T
        fvals = _row_reduce(np.maximum, dots)
        eta = ACTIVE_TOL * (1.0 + np.abs(fvals))
        return dots >= (fvals - eta)[:, None]

    def subgradient_many(self, X):
        A = self.vectors
        active = self._actives(X)
        out = np.empty((X.shape[0], self.dim))
        counts = _row_reduce(np.add, active)
        single = counts == 1
        if single.any():
            out[single] = A[np.argmax(active[single], axis=1)]
        pair = counts == 2
        if pair.any():
            # origin projected onto [a, b]: a + t(b - a), t = -<a, b-a>/|b-a|^2
            ia, ib = np.nonzero(active[pair])[1].reshape(-1, 2).T
            a, e = A[ia], A[ib] - A[ia]
            ee = np.einsum("ij,ij->i", e, e)
            t = -np.einsum("ij,ij->i", a, e) / np.where(ee > 0.0, ee, 1.0)
            out[pair] = a + np.clip(t, 0.0, 1.0)[:, None] * e
        ties = counts > 2
        if ties.any():
            out[ties] = min_norm_point(A, mask=active[ties])
        return out

    def prox_many(self, tau, X, start=None):
        # Moreau decomposition: J_tau(x) = x - tau * proj_{conv a_i}(x / tau)
        X = real_points(X, self.dim)
        t = _tau_rows(tau, X.shape[0], self.lam, 2)
        Z = X / t
        proj, gaps = _hull_projection(self, Z)
        if self.dim == 1:
            gaps = np.zeros(X.shape[0])
        elif self.dim == 2:
            # Wolfe's exit gap |q|^2 - min_i <a_i - z, q> with q = p - z
            Q = proj - Z
            qq = np.einsum("ij,ij->i", Q, Q)
            gaps = qq - (_row_reduce(np.minimum, Q @ self.vectors.T)
                         - np.einsum("ij,ij->i", Z, Q))
        Y = X - t * proj
        return Y, (t * np.sqrt(np.maximum(gaps, 0.0))[:, None])[:, 0]

    def envelope_derivatives_many(self, tau, X, Y):
        # G = (X - Y)/tau is the hull projection p of z = X/tau, and DJ_tau is
        # I - DP(z), so K = DP(z)/tau.  DP(z) projects onto the face exposed
        # by q = z - p = Y/tau: I inside the hull, 0 at a vertex.
        k, d = X.shape
        t = _tau_rows(tau, k, self.lam, 2)
        Q = Y / t
        qn = np.linalg.norm(Q, axis=1)
        # q is rounding noise, not a direction, for rows inside the hull
        outside = qn > ACTIVE_TOL * (1.0 + np.linalg.norm(X / t, axis=1))
        P = np.zeros((k, d, d))
        P[~outside] = np.eye(d)
        U = Q[outside] / qn[outside, None]
        if d == 2 and self._hull.shape[0] > 1:
            # the exposed face is an edge when the better neighbour of the
            # top hull vertex ties with it; DP is then its tangent's projector
            H = self._hull
            h = H.shape[0]
            s = U @ H.T
            top = np.argmax(s, axis=1)
            rows = np.arange(U.shape[0])
            after, before = (top + 1) % h, (top - 1) % h
            nb = np.where(s[rows, after] >= s[rows, before], after, before)
            tol = ACTIVE_TOL * (1.0 + np.abs(H).max())
            edge = s[rows, nb] >= s[rows, top] - tol
            T = H[nb] - H[top]
            T /= np.linalg.norm(T, axis=1, keepdims=True)
            P[outside] = np.where(edge[:, None, None],
                                  T[:, :, None] * T[:, None, :], 0.0)
        elif d >= 3:
            A = self.vectors
            tol = ACTIVE_TOL * (1.0 + np.abs(A).max())
            s = U @ A.T
            face = s >= s.max(axis=1, keepdims=True) - tol
            # each row's face directions a_j - a_0 as rows, zero-padded to all
            # m vectors: zero rows change neither the singular values nor
            # the right singular vectors of the nonzero ones
            order = np.argsort(~face, axis=1, kind="stable")
            E = np.where(np.take_along_axis(face, order, axis=1)[:, :, None],
                         A[order] - A[order[:, :1]], 0.0)
            _, sv, Vt = np.linalg.svd(E, full_matrices=False)
            V = Vt * (sv > tol)[:, :, None]
            P[outside] = V.transpose(0, 2, 1) @ V
        return P / np.reshape(t, (-1, 1, 1)), None


@dataclass(frozen=True)
class LogSumExp(ConvexFunction):
    """f(x) = eps * log( (1/m) sum_i exp(<a_i, x>/eps) ); smooth, lambda = 0.

    It is the smoothing of max_i <a_i, x> with the same vectors, and its
    resolvent lies within sqrt(tau eps log m) of that max-linear resolvent.
    The resolvent is damped Newton on r(y) = y + tau grad f(y) - x started
    there (see `MaxLinear`), or at the caller's `start` (the minimizer passes
    each line-search trial a first-order prediction from the last accepted
    iterate).  A row halves its step until |r| drops enough (Armijo); an
    iteration whose rows all take the full step skips that bookkeeping.  A
    row stops when |r| <= 1e-11 (1 + |x|) or when its step no longer moves y
    by more than rounding; near a kink at small eps the slope of r is of
    order tau |A|^2 / eps, so the reachable |r| can be above the target there.
    The returned residual is |r| itself: tau f(y) + |y - x|^2/2 is 1-strongly
    convex and r is its gradient, so |r| bounds |y - J_tau(x)|.
    """

    vectors: np.ndarray
    epsilon: float
    _tau_factors = (0.5, 0.1, 0.02, 0.0)

    def __post_init__(self):
        A = _set_vectors(self)
        object.__setattr__(self, "epsilon",
                           real_number(self.epsilon, "epsilon", positive=True))
        # a_i a_i^T as (d d, m) rows: the Hessian's first term is one matmul
        m, d = A.shape
        object.__setattr__(self, "_outer", frozen(
            (A.T[:, None, :] * A.T[None, :, :]).reshape(d * d, m)))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def value_many(self, X):
        s = (X @ self.vectors.T) / self.epsilon
        m = _row_reduce(np.maximum, s)
        lse = m + np.log(_row_reduce(np.add, np.exp(s - m[:, None])))
        return self.epsilon * (lse - np.log(self.vectors.shape[0]))

    def subgradient_many(self, X):
        return self._softmax(X.T)[1].T

    def _softmax(self, Y):
        """Softmax weights W (m, k) and gradient A^T W (d, k) of f at the
        columns of Y (d, k)."""
        W = (self.vectors @ Y) / self.epsilon
        W = np.exp(W - W.max(axis=0))
        W /= W.sum(axis=0)
        return W, self.vectors.T @ W

    def _hessian(self, W, g):
        """grad^2 f = (A^T diag(w) A - g g^T)/eps (d, d, k) from the
        weights W (m, k) and gradients g (d, k) of `_softmax`."""
        d = len(g)
        return ((self._outer @ W).reshape(d, d, -1) - g[:, None] * g) / self.epsilon

    def prox_many(self, tau, X, start=None):
        X = real_points(X, self.dim)
        k, d = X.shape
        t = _tau_rows(tau, k, self.lam, 2)
        if start is None:
            Y = X - t * _hull_projection(self, X / t)[0]
        else:
            Y = real_points(start, d)
            if Y.shape != X.shape:
                raise DimensionMismatchError(
                    f"start has shape {Y.shape}, expected {X.shape}")
        # component-major from here: row i of X is column i of x
        Y, x, t = Y.T.copy(), X.T.copy(), np.broadcast_to(t, (k, 1))[:, 0]
        W, g = self._softmax(Y)
        R = Y + t * g - x
        res = _column_norms(R)
        target = _NEWTON_TOL * (1.0 + _column_norms(x))
        # the rows not yet done, and their columns in that order
        rows = np.flatnonzero(res > target)
        x, t, target, y, W, g, R, rn = (a.take(rows, axis=-1)
                                        for a in (x, t, target, Y, W, g, R, res))
        eye = np.eye(d)[:, :, None]
        for _ in range(_NEWTON_CAP):
            if rows.size == 0:
                break
            step = _solve_columns(eye + t * self._hessian(W, g), R)     # -step is Newton's
            snorm = _column_norms(step)
            # a step within rounding of y cannot lower |r|: such a row is at
            # the floating-point floor and stops with its residual
            floor = 1e-15 * (1.0 + _column_norms(y))
            trial = y - step
            Wt, gt = self._softmax(trial)
            rt = trial + t * gt - x
            rtn = _column_norms(rt)
            ok = (rtn <= (1.0 - 1e-4) * rn) & (snorm > floor)
            if ok.all():    # every row takes its full step: nothing to merge
                keep, back = np.flatnonzero(rtn > target), ()
            else:
                # halve each step without sufficient decrease, one softmax pass per trial;
                # the floor test ends the halving first unless |step| > 1e3 (1 + |y|)
                alpha = np.ones(rows.size)
                back = np.flatnonzero(~ok & (0.5 * snorm > floor))
                for _ls in range(60):
                    if back.size == 0:
                        break
                    alpha[back] *= 0.5
                    trial[:, back] = y[:, back] - alpha[back] * step[:, back]
                    Wt[:, back], gt[:, back] = self._softmax(trial[:, back])
                    rt[:, back] = trial[:, back] + t[back] * gt[:, back] - x[:, back]
                    rtn[back] = _column_norms(rt[:, back])
                    ok[back] = rtn[back] <= (1.0 - 1e-4 * alpha[back]) * rn[back]
                    back = back[~ok[back] & (0.5 * alpha[back] * snorm[back] > floor[back])]
                trial, Wt, gt, rt, rtn = (np.where(ok, a, b) for a, b in (
                    (trial, y), (Wt, W), (gt, g), (rt, R), (rtn, rn)))
                keep = np.concatenate([np.flatnonzero(ok & (rtn > target)), back])
            # rows that converged or reached the floor leave with their
            # columns written back; a row still backtracking after 60
            # halvings stays, moved last
            if keep.size < rows.size or len(back):
                Y[:, rows], res[rows] = trial, rtn
                rows, x, t, target, trial, Wt, gt, rt, rtn = (a.take(keep, axis=-1) for a in (
                    rows, x, t, target, trial, Wt, gt, rt, rtn))
            y, W, g, R, rn = trial, Wt, gt, rt, rtn
        if rows.size:
            raise SolverError(
                f"smoothed-max resolvent Newton stalled at residual "
                f"{float(rn.max()):.3e} after {_NEWTON_CAP} iterations")
        return np.ascontiguousarray(Y.T), res

    def envelope_derivatives_many(self, tau, X, Y):
        t = _tau_rows(tau, len(X), self.lam)
        return self._derivatives(t, Y, (X - Y).T / t)

    def _derivatives(self, t, Y, G=None):
        # K = (I - B)/t = (I + t H)^-1 H with H = grad^2 f(Y) and
        # B = DJ_t = (I + t H)^-1.  G = grad f_t(x) = grad f(J_t x), so
        # C = B T[B G] B, T[z] = D^3 f(Y)[z] = sum_j w_j ((v_j . z)/eps^2)
        # v_j v_j^T with v_j = a_j - g, the third cumulant of the softmax.
        # With u_j = B v_j that is sum_j w_j ((u_j . G)/eps^2) u_j u_j^T,
        # here component-major as in prox_many: the last axis is the row.
        # At t = 0, B = I and G (None) is the softmax gradient g.
        W, g = self._softmax(Y.T)
        H = self._hessian(W, g)
        B = _solve_columns(np.eye(self.dim)[:, :, None] + t * H)
        U = (B * (self.vectors[:, None, :, None] - g)).sum(axis=2)      # (m, d, k)
        c = W * (U * (g if G is None else G)).sum(axis=1) / self.epsilon**2
        K = (B[:, :, None] * H).sum(axis=1)
        C = ((c[:, None] * U)[:, :, None] * U[:, None]).sum(axis=0)
        return K.transpose(2, 0, 1), C.transpose(2, 0, 1)


@dataclass(frozen=True)
class _RegionKind(ConvexFunction):
    """The indicator of a ball, box or halfspace (offset s = 0) or its Moreau
    envelope dist^2/(2s), both through the projection P by the semigroup law
    (e_s g)_tau = e_{tau+s} g: the resolvent is x + tau/(tau+s) (P x - x)
    (exactly P x when s = 0), K = (I - DP)/(tau+s) and C = (DP - DP^2)/(tau+s)^2.
    On a ball C is (rho - r)(r/rho^2)(I - u u^T)/(tau+s)^2 outside (rho =
    |x - c|, u = (x - c)/rho) and 0 inside; a box's or halfspace's DP is a
    projector, so C = 0 there and is returned as None."""

    region: ConvexRegion
    _offset = 0.0
    _tau_factors = (0.004,)     # |grad f_tau|^2 = dist^2/(tau+s)^2

    def __post_init__(self):
        if not isinstance(self.region, (Ball, Box, Halfspace)):
            raise ConfigError("region must be a ball, box, or halfspace")

    @property
    def dim(self) -> int:
        return self.region.dim

    def prox_many(self, tau, X, start=None):
        X = real_points(X, self.dim)
        t = _tau_rows(tau, X.shape[0], self.lam, 2)
        Y = self.region.project_many(X)
        if self._offset:
            Y = X + t / (t + self._offset) * (Y - X)
        return Y, np.zeros(X.shape[0])

    def _derivatives(self, t, X):
        J = self.region.project_jacobian_many(X)
        step = t + self._offset     # s at t = 0
        K = (np.eye(self.dim) - J) / step
        return K, (J - J @ J) / step / step if isinstance(self.region, Ball) else None


@dataclass(frozen=True)
class Indicator(_RegionKind):
    """f = 0 on the region, +inf outside; resolvent is the projection."""

    def value_many(self, X):
        return np.where(self.region.contains_many(X), 0.0, np.inf)

    def slope_many(self, X):
        return np.where(self.region.contains_many(X), 0.0, np.inf)

    def subgradient_many(self, X):
        inside = self.region.contains_many(X)
        if not inside.all():
            raise OutsideDomainError("minimal subgradient undefined outside the region")
        return np.zeros_like(X)


@dataclass(frozen=True)
class SquaredDistance(_RegionKind):
    """f(x) = weight * dist(x, region)^2; smooth (C^1), lambda = 0.

    It is the Moreau envelope of the region's indicator at s = 1/(2 weight),
    so its resolvent slides toward the projection:
    J_tau(x) = x + tau/(tau + s) (proj(x) - x).
    """

    weight: float
    _tau_factors = (0.0,)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "weight",
                           real_number(self.weight, "weight", positive=True))
        object.__setattr__(self, "_offset", 0.5 / self.weight)

    def value_many(self, X):
        return self.weight * self.region.distance_many(X) ** 2

    def subgradient_many(self, X):
        return 2.0 * self.weight * (X - self.region.project_many(X))

    def slope_many(self, X):
        return 2.0 * self.weight * self.region.distance_many(X)


def _unit_scale(f: ConvexFunction) -> tuple[ConvexFunction, float, float]:
    """(g, c, L) with f = c g(L .), g the unit member of f's built-in family
    (any other f, subclasses too, is its own, at c = L = 1), so J^f_tau(x) =
    J^g_{c L^2 tau}(L x)/L and f's K, C at x are c L^2, c^2 L^4 times g's."""
    if type(f) is LogSumExp:
        return LogSumExp(f.vectors, 1.0), f.epsilon, 1.0 / f.epsilon
    if type(f) is SquaredDistance:
        return SquaredDistance(f.region, 1.0), f.weight, 1.0
    return f, 1.0, 1.0


@dataclass(frozen=True)
class ProxResult:
    resolvent_point: np.ndarray
    envelope_value: float
    moreau_gradient: np.ndarray
    tau: float
    solver_residual: float


def evaluate(f: ConvexFunction, x) -> float:
    """f(x) as an extended real; +inf outside an indicator's region."""
    return f.value(as_point(x, f.dim))


def prox(f: ConvexFunction, tau: float, x) -> ProxResult:
    """Resolvent point, envelope value, and envelope gradient at x."""
    tau = f.require_admissible(tau)
    x = as_point(x, f.dim)
    Y, res = f.prox_many(tau, x[None, :])
    y = Y[0]
    diff = x - y
    env = f.value(y) + float(diff @ diff) / (2.0 * tau)
    return ProxResult(
        resolvent_point=y,
        envelope_value=env,
        moreau_gradient=diff / tau,
        tau=tau,
        solver_residual=float(res[0]),
    )


def moreau_gradient(f: ConvexFunction, tau: float, x) -> np.ndarray:
    return prox(f, tau, x).moreau_gradient


def min_norm_subgradient(f: ConvexFunction, x) -> np.ndarray:
    """Minimal-norm element of the subdifferential; raises outside its domain."""
    x = as_point(x, f.dim)
    return f.subgradient_many(x[None, :])[0]


def slope(f: ConvexFunction, x) -> float:
    """Metric slope |grad f|(x) = |min-norm subgradient|, +inf outside the domain."""
    x = as_point(x, f.dim)
    return float(f.slope_many(x[None, :])[0])


def sampled_slope_lower_bound(f: ConvexFunction, x, samples) -> float:
    """max over sample points y of [f(x) - f(y) + (lambda/2)|x-y|^2]^+ / |x-y|.

    A certified lower bound for the slope; samples must exclude x itself.
    """
    x = as_point(x, f.dim)
    if real_array(samples, "points").size == 0:     # real_points reads [] as one point
        raise ConfigError("need at least one sample point")
    Y = real_points(samples, f.dim)
    if np.any(np.linalg.norm(Y - x, axis=1) == 0.0):
        raise ConfigError("sample points must differ from x")
    return float(_slope_lower_bounds(f, x[None, :], Y[None])[0])


def _slope_lower_bounds(f: ConvexFunction, X: np.ndarray, S: np.ndarray) -> np.ndarray:
    """`sampled_slope_lower_bound` for each row x of X (k, d) with its own
    sample points S[i] (k, m, d), from one value_many call; +inf where f(x)
    is infinite."""
    k, m, d = S.shape
    values = f.value_many(np.concatenate([X, S.reshape(k * m, d)]))
    fx, fy = values[:k], values[k:].reshape(k, m)
    finite = np.isfinite(fx)
    dists = np.linalg.norm(S - X[:, None], axis=2)
    numer = np.where(finite, fx, 0.0)[:, None] - fy + 0.5 * f.lam * dists**2
    return np.where(finite, (np.maximum(numer, 0.0) / dists).max(axis=1), np.inf)


@dataclass(frozen=True)
class ResolventSlopeEstimate:
    value: float
    taus: np.ndarray
    profile: np.ndarray
    monotone: bool
    diverged: bool


def resolvent_slope(f: ConvexFunction, x, *, tau0: float = 1.0,
                    levels: int = 13) -> ResolventSlopeEstimate:
    """Slope via the envelope-gradient limit |x - J_tau(x)|/tau as tau -> 0.

    Evaluates the quotient on the halving schedule tau0 * 2^-k (tau0 shrunk
    when lambda < 0 so every step is admissible) in one resolvent batch,
    audits that the profile is nondecreasing as tau falls, and returns the
    last value plus a first-order Richardson correction.  A persistently
    doubling profile is reported as a divergence (slope +inf).  A tau0 that
    is not a positive finite number raises `InadmissibleTauError`.
    """
    x = as_point(x, f.dim)
    levels = whole_number(levels, "levels", 4)
    tau0 = _tau_number(tau0)
    tau0 = f.require_admissible(min(tau0, tau_cap(f.lam)))
    taus = tau0 * 0.5 ** np.arange(levels)
    Y, _ = f.prox_many(taus, np.repeat(x[None, :], levels, axis=0))
    profile = np.linalg.norm(x - Y, axis=1) / taus
    monotone = bool(np.all(np.diff(profile) >= -1e-8 * (1.0 + profile[:-1])))
    scale = 1.0 + float(np.linalg.norm(x))
    # |x - J_tau(x)| halves per level when the quotient converges and stalls
    # at dist(x, domain) when it diverges
    moved = taus * profile
    diverged = bool(moved[-1] > 1e-9 * scale and moved[-1] > 0.5 * moved[-4])
    if diverged:
        value = np.inf
    else:
        value = float(max(profile[-1], 2.0 * profile[-1] - profile[-2]))
    return ResolventSlopeEstimate(value=value, taus=taus, profile=profile,
                                  monotone=monotone, diverged=diverged)
