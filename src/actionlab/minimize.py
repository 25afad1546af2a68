"""Endpoint-constrained minimization of the smoothed action functional.

The discretized objective on a uniform grid with pinned endpoints is

    E_tau(x_1..x_{N-1}) = sum |x_{i+1} - x_i|^2 / dt + dt * sum phi_tau(m_i),

with phi_tau = |grad f_tau|^2 evaluated at chord midpoints m_i through the
resolvent, and tau run through a decreasing continuation schedule with warm
starts.

Each step is damped Newton, the minimum action method of E, Ren and
Vanden-Eijnden (2004) in the semismooth setting of Qi and Sun (1993).  With
G_i = grad f_tau(m_i), phi_tau has gradient 2 K_i G_i and Hessian
2 K_i^2 + 2 C_i, where K_i = grad^2 f_tau(m_i) and
C_i = sum_j G_ij grad^2 (d_j f_tau)(m_i) both come from one call of the
kind's `envelope_derivatives_many`.  C vanishes for quadratics and for
piecewise-affine resolvents (max_linear, and indicator and squared_distance on
boxes and halfspaces); those kinds return C = None, and their step is
Gauss-Newton, which is exact for them.  For log_sum_exp and ball regions K varies and C does not
vanish; with it the step is exact Newton, which converges quadratically near
the minimizer where Gauss-Newton converges only linearly.  The Hessian of E_tau
is the kinetic part (2/dt) tridiag(-1, 2, -1) plus (dt/4) times the slope
Hessian of chord i on the four blocks that chord couples: block tridiagonal,
and solved by block cyclic reduction.  The Gauss-Newton Hessian is positive
definite by construction; the Newton one need not be (C of log_sum_exp is
indefinite), so the reduction tests its pivots, and an iteration whose Newton
Hessian is not positive definite takes the Gauss-Newton step instead.  K and
C are computed once per accepted iterate from the midpoint resolvents of its
line-search trial, so each trial costs one resolvent batch and nothing else.
That batch starts from the first-order prediction Y - s (I - tau K) dM of its
resolvents, with Y those of the accepted iterate and dM the midpoints of the
step s D; the iterative log_sum_exp resolvent then takes fewer Newton
iterations, and the closed-form kinds ignore the start.  Armijo backtracking
starts from the full step.  A stage stops when the decrement g^T H^-1 g, in
the Hessian that made the step, falls to
grad_tol^2 * max(|xd - x0|^2/delta, E_tau), a rule that does not depend on the
scale of the problem.

For max_linear the slope jumps across kinks, which the smoothed minimizer
approaches but does not rest on.  After the last stage each midpoint's active
face is read from its resolvent, and the kinetic energy is minimized with every
midpoint held on its face (the slope is constant on a face, so this is the
true discrete problem for that face set).  The result is kept when it lowers
the true action, and the step repeats with every run of pinned midpoints
grown by one chord at each end until the action stops dropping.

`_minimize_paths` runs k paths of one function in lockstep, so that every
resolvent batch covers all of them; `minimize_action` is its k = 1 case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import Path, discrete_action
from .convex import (ConvexFunction, Indicator, MaxLinear, _solve_blocks, as_point,
                     tau_cap)
from .errors import (ConfigError, malformed_input, real_array, real_number,
                     real_schedule, whole_number)

DEFAULT_TAU_FACTORS = (0.5, 0.1, 0.02, 0.004)
_STEP_SHRINK = 0.5      # Armijo backtracking from the full Newton step: shrink
_STEP_DECREASE = 1e-4   # factor and sufficient-decrease constant
_DENSE_SIZE = 32        # block cyclic reduction solves densely at n*d <= this
_FACE_PENALTY = 1e3     # kink-face polish: multiplier-method penalty factor,
_FACE_ROUNDS = 8        # its rounds per solve,
_FACE_PASSES = 64       # and identify-then-solve passes


@dataclass(frozen=True)
class MinimizeConfig:
    """Resolution N (intervals), tau continuation schedule (None for the
    default scaled to delta), max_iters accepted steps per stage, and the
    dimensionless stopping tolerance grad_tol: a stage stops once the Newton
    decrement g^T H^-1 g is at most grad_tol^2 times the larger of the straight
    segment's kinetic energy |xd - x0|^2/delta and the current objective."""

    N: int = 256
    tau_schedule: tuple[float, ...] | None = None
    max_iters: int = 600
    grad_tol: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "N", whole_number(self.N, "N"))
        if self.tau_schedule is not None:
            object.__setattr__(self, "tau_schedule",
                               real_schedule(self.tau_schedule, "tau_schedule", -1))
        object.__setattr__(self, "max_iters", whole_number(self.max_iters, "max_iters"))
        object.__setattr__(self, "grad_tol",
                           real_number(self.grad_tol, "grad_tol", positive=True))

    def schedule_for(self, delta: float, lam: float) -> tuple[float, ...]:
        if self.tau_schedule is not None:
            return self.tau_schedule
        # keep the whole default schedule admissible with margin
        factor = min(1.0, tau_cap(lam) / (DEFAULT_TAU_FACTORS[0] * delta))
        return tuple(f * delta * factor for f in DEFAULT_TAU_FACTORS)


def _config(config) -> MinimizeConfig:
    if config is not None and not isinstance(config, MinimizeConfig):
        raise ConfigError(f"config must be a MinimizeConfig or None, "
                          f"got {type(config).__name__}")
    return config or MinimizeConfig()


@dataclass(frozen=True)
class MinimizeResult:
    path: Path
    value_smoothed: float
    value_true: float
    iterations: int
    converged: bool
    tau_schedule: tuple[float, ...]


class _Objective:
    """Discretized smoothed action of k paths over their interior nodes
    (k, N-1, d), each with its endpoints X0[p] and XD[p] pinned."""

    def __init__(self, f: ConvexFunction, tau: float, X0: np.ndarray,
                 XD: np.ndarray, dt: float):
        self.f = f
        self.tau = tau
        self.X0 = X0
        self.XD = XD
        self.dt = dt

    def paths(self, idx) -> _Objective:
        return _Objective(self.f, self.tau, self.X0[idx], self.XD[idx], self.dt)

    def full_nodes(self, Z: np.ndarray) -> np.ndarray:
        return np.concatenate([self.X0[:, None], Z, self.XD[:, None]], axis=1)

    def midpoints(self, Z: np.ndarray) -> np.ndarray:
        X = self.full_nodes(Z)
        return 0.5 * (X[:, :-1] + X[:, 1:])

    def evaluate(self, Z: np.ndarray, start: np.ndarray | None = None
                 ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Objective values (k,) at Z, with the midpoints and their resolvents
        (k, N, d) from one `prox_many` call over every path's rows; start,
        when given, is a guess of those resolvents."""
        X = self.full_nodes(Z)
        diffs = X[:, 1:] - X[:, :-1]
        kinetic = np.einsum("pij,pij->pi", diffs, diffs).sum(axis=1) / self.dt
        mids = 0.5 * (X[:, :-1] + X[:, 1:])
        d = Z.shape[2]
        guess = None if start is None else start.reshape(-1, d)
        Y = self.f.prox_many(self.tau, mids.reshape(-1, d), start=guess)[0].reshape(mids.shape)
        G = (mids - Y) / self.tau
        return kinetic + self.dt * np.einsum("pij,pij->pi", G, G).sum(axis=1), (mids, Y)

    def kinetic_gradient(self, Z: np.ndarray) -> np.ndarray:
        X = self.full_nodes(Z)
        return (2.0 / self.dt) * (2.0 * X[:, 1:-1] - X[:, :-2] - X[:, 2:])

    def gradient(self, Z: np.ndarray, dphi: np.ndarray) -> np.ndarray:
        """Gradient of kinetic + dt sum_i phi(m_i) at Z from phi's gradients dphi."""
        return self.kinetic_gradient(Z) + 0.5 * self.dt * (dphi[:, :-1] + dphi[:, 1:])

    def hessian(self, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal blocks of the Hessian of kinetic + dt sum_i phi(m_i), and
        those coupling node j to j+1, from the Hessian S (k, N, d, d) of phi."""
        dt, eye = self.dt, np.eye(S.shape[-1])
        return ((4.0 / dt) * eye + 0.25 * dt * (S[:, :-1] + S[:, 1:]),
                -(2.0 / dt) * eye + 0.25 * dt * S[:, 1:-1])

    def newton_system(self, Z: np.ndarray, resolved: tuple[np.ndarray, np.ndarray]):
        """Derivatives of the objective at Z from the (midpoints, resolvents)
        of evaluate(Z), with K and C from one `envelope_derivatives_many`
        call over every path's rows: the exact gradient, the Gauss-Newton
        Hessian blocks (diag, off) from 2 K^2, the exact Newton blocks from
        2 K^2 + 2 C (None when the kind gives C = 0, so Gauss-Newton is
        exact), and the envelope Hessians K (k N, d, d) at the midpoints."""
        k, n, d = resolved[0].shape
        mids, Y = (a.reshape(k * n, d) for a in resolved)
        K, C = self.f.envelope_derivatives_many(self.tau, mids, Y)
        G = (mids - Y) / self.tau
        dphi = 2.0 * np.einsum("kij,kj->ki", K, G)
        S = 2.0 * np.einsum("kij,kil->kjl", K, K)
        grad = self.gradient(Z, dphi.reshape(k, n, d))
        diag, off = self.hessian(S.reshape(k, n, d, d))
        newton = None
        if C is not None:
            # the slope Hessian S + 2 C enters the blocks as S does, times dt/4
            C = C.reshape(k, n, d, d)
            newton = (diag + 0.5 * self.dt * (C[:, :-1] + C[:, 1:]),
                      off + 0.5 * self.dt * C[:, 1:-1])
        return grad, (diag, off), newton, K


def _definite_blocks(A: np.ndarray) -> np.ndarray:
    """Per path p, whether every symmetric block A[j, p] is positive definite:
    by its leading minors for 1x1 and 2x2 blocks, by its eigenvalues above."""
    d = A.shape[-1]
    if d == 1:
        return (A[..., 0, 0] > 0.0).all(axis=0)
    if d == 2:
        a = A[..., 0, 0]
        return ((a > 0.0) & (a * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0] > 0.0)).all(axis=0)
    return (np.linalg.eigvalsh(A)[..., 0] > 0.0).all(axis=0)


def _block_tridiagonal_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray,
                             definite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Solve k symmetric block-tridiagonal systems: path p's diagonal blocks
    diag[p] (n, d, d), off[p, j] (n-1, d, d) coupling unknown j to j+1 (its
    transpose couples j+1 to j), rhs[p] (n, d).  Returns the solutions
    (k, n, d) and a (k,) mask of the paths solved.

    Block cyclic reduction: each level eliminates the odd unknowns with one
    batched solve of their diagonal blocks, leaving a block-tridiagonal system
    in the even ones; once n*d <= _DENSE_SIZE it solves densely.  `_reduce`
    does it with the block axis first, where numpy slices cheapest.

    With definite set, the solve also tests that each matrix is positive
    definite, and leaves unsolved a path whose matrix is not.  A level's
    matrix is positive definite exactly when the odd unknowns' diagonal
    blocks and the reduced system, their Schur complement, are; so each level
    tests those blocks and the dense base case tests by Cholesky.
    """
    x, ok = _reduce(diag.swapaxes(0, 1), off.swapaxes(0, 1), rhs.swapaxes(0, 1), definite)
    return x.swapaxes(0, 1), ok


def _reduce(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray, definite: bool):
    """`_block_tridiagonal_solve` with the block axis first: x (n, k, d)."""
    n, k, d = rhs.shape
    dense = n * d <= _DENSE_SIZE
    if dense:
        A = np.zeros((k, n, d, n, d))
        j = np.arange(n)
        A[:, j, :, j, :] = diag
        A[:, j[:-1], :, j[1:], :] = off
        A[:, j[1:], :, j[:-1], :] = off.swapaxes(-1, -2)
        A = A.reshape(k, n * d, n * d)
    if definite:
        ok = np.ones(k, dtype=bool)
        if dense:
            for p in range(k):
                try:
                    np.linalg.cholesky(A[p])
                except np.linalg.LinAlgError:
                    ok[p] = False
        else:
            ok = _definite_blocks(diag[1::2])
        if not ok.all():
            # the paths that passed go on alone (a dense pass needs no retest)
            x = np.zeros_like(rhs)
            x[:, ok], ok[ok] = _reduce(diag[:, ok], off[:, ok], rhs[:, ok], not dense)
            return x, ok
    if dense:
        x = np.linalg.solve(A, rhs.swapaxes(0, 1).reshape(k, n * d, 1))
        return x.reshape(k, n, d).swapaxes(0, 1), np.ones(k, dtype=bool)
    n_odd, n_even = n // 2, n - n // 2
    left = off[0::2]                        # couples odd unknown 2o+1 to 2o
    right = np.zeros((n_odd, k, d, d))      # couples it to 2o+2 (none for the
    right[:n_even - 1] = off[1::2]          # last odd unknown when n is even)
    # odd unknown 2o+1 is w - Wl x_{2o} - Wr x_{2o+2}, W = [Wl | Wr | w]
    W = _solve_blocks(diag[1::2], np.concatenate(
        [left.swapaxes(-1, -2), right, rhs[1::2, ..., None]], axis=-1))
    # substituted into the even rows beside it: 2e+1 on the right of even e
    # (e < n_odd) and 2e+1 on the left of even e+1 (e < n_even - 1)
    LW = left @ W
    RW = right[:n_even - 1].swapaxes(-1, -2) @ W[:n_even - 1]
    red_diag = diag[0::2].copy()
    red_rhs = rhs[0::2].copy()
    red_diag[:n_odd] -= LW[..., :d]
    red_rhs[:n_odd] -= LW[..., 2 * d]
    red_diag[1:] -= RW[..., d:2 * d]
    red_rhs[1:] -= RW[..., 2 * d]
    even, ok = _reduce(red_diag, -LW[:n_even - 1, ..., d:2 * d], red_rhs, definite)
    beside = np.zeros((n_odd, k, 2 * d))
    beside[..., :d] = even[:n_odd]
    beside[:n_even - 1, :, d:] = even[1:]
    x = np.empty_like(rhs)
    x[0::2] = even
    x[1::2] = W[..., 2 * d] - (W[..., :2 * d] @ beside[..., None])[..., 0]
    return x, ok


def _stage(obj: _Objective, Z: np.ndarray, cfg: MinimizeConfig
           ) -> tuple[np.ndarray, list[int], list[bool], list[float], list[list]]:
    """Damped Newton steps on obj from Z (k, N-1, d), the k paths in
    lockstep: per path the last iterate, its accepted step count, whether it
    met the stopping rule, its energy, and the trace of accepted energies.

    A step solves the exact Newton system when the kind gives a curvature
    term and that path's Hessian is positive definite, else the Gauss-Newton
    one; the stop measures the decrement in the Hessian that made the step.
    The paths still searching share a step length and a resolvent batch per
    trial, each with its own Armijo test."""
    values, (mids, Y) = obj.evaluate(Z)
    energy = values.tolist()
    k, traces = len(energy), [[e] for e in energy]
    segment = [float(v @ v) / (obj.dt * (Z.shape[1] + 1)) for v in obj.XD - obj.X0]
    Z_end, accepted, hit = np.empty_like(Z), [0] * k, [False] * k
    # the paths still stepping; obj, Z, mids and Y hold their rows in order
    run = list(range(k))
    for _ in range(cfg.max_iters):
        grad, gauss_newton, newton, K = obj.newton_system(Z, (mids, Y))
        direction, ok = _block_tridiagonal_solve(*(newton or gauss_newton), grad,
                                                 definite=newton is not None)
        if not ok.all():
            direction[~ok] = _block_tridiagonal_solve(*(b[~ok] for b in gauss_newton),
                                                      grad[~ok])[0]
        decrement = (grad * direction).reshape(len(run), -1).sum(axis=1).tolist()
        for i, p in enumerate(run):
            hit[p] = decrement[i] <= cfg.grad_tol**2 * max(segment[p], energy[p])
        moving = [i for i, p in enumerate(run) if not hit[p]]   # rows that step
        if not moving:
            break
        # a trial moves the midpoints by -step dM and, to first order, their
        # resolvents Y by -step DJ dM with DJ = I - tau K
        D = np.zeros((len(run), direction.shape[1] + 2, direction.shape[2]))
        D[:, 1:-1] = direction
        dM = 0.5 * (D[:, :-1] + D[:, 1:])
        dY = dM - obj.tau * np.einsum("kij,kj->ki", K, dM.reshape(K.shape[:2])
                                      ).reshape(dM.shape)
        search, step = moving, 1.0          # rows still searching
        while search and step > _STEP_SHRINK**60:   # at most 60 trials
            rows, sub = ((slice(None), obj) if len(search) == len(run)
                         else (search, obj.paths(search)))
            candidate = Z[rows] - step * direction[rows]
            cand_energy, (cand_mids, cand_Y) = sub.evaluate(
                candidate, Y[rows] - step * dY[rows])
            good = []
            for j, (i, c) in enumerate(zip(search, cand_energy.tolist())):
                p = run[i]
                # a step too short to change the energy is no progress, even
                # when the Armijo bound rounds to the energy itself
                if c < energy[p] and c <= energy[p] - _STEP_DECREASE * step * decrement[i]:
                    good.append(j)
                    energy[p], accepted[p] = c, accepted[p] + 1
                    traces[p].append(c)
            if len(good) == len(run):
                Z, mids, Y = candidate, cand_mids, cand_Y
            elif good:
                took = [search[j] for j in good]
                Z[took], mids[took], Y[took] = candidate[good], cand_mids[good], cand_Y[good]
            search = [i for j, i in enumerate(search) if j not in good]
            step *= _STEP_SHRINK
        # the rows still searching found no descent representable at this
        # precision; they leave with the ones that met their stop
        stays = [i for i in moving if i not in search]
        if not stays:
            break
        if len(stays) < len(run):
            Z_end[run] = Z
            run = [run[i] for i in stays]
            Z, mids, Y, obj = Z[stays], mids[stays], Y[stays], obj.paths(stays)
    Z_end[run] = Z
    return Z_end, accepted, hit, energy, traces


def _face_projectors(obj: _Objective, Z: np.ndarray) -> np.ndarray:
    """Per midpoint of Z, the projector onto the directions its max_linear
    resolvent pins: the midpoint lies on its face exactly when P m = 0."""
    _, (mids, Y) = obj.evaluate(Z)
    return obj.tau * obj.f.envelope_derivatives_many(obj.tau, mids[0], Y[0])[0]


def _on_faces(obj: _Objective, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Interior nodes of least kinetic energy with every midpoint on its face,
    P_i m_i = 0, from the method of multipliers.

    Each round minimizes kinetic + dt kappa sum |P_i m_i + U_i|^2 exactly (it
    is quadratic, so one block-tridiagonal solve) and adds the violation P m
    to the multipliers U.  The stiffest pattern of violations, alternating
    along a run of N pinned midpoints, costs about N^2 times the kinetic
    stiffness 1/dt^2, so kappa = _FACE_PENALTY N^2/dt^2 cuts the violation by
    a factor of several hundred per round.
    """
    kappa = _FACE_PENALTY * (P.shape[0] / obj.dt)**2
    S = 2.0 * kappa * P
    U = np.zeros((P.shape[0], P.shape[1]))
    scale = 1.0 + float(np.abs(obj.full_nodes(Z)).max())
    V = np.einsum("kij,kj->ki", P, obj.midpoints(Z)[0])
    diag, off = obj.hessian(S[None])
    for _ in range(_FACE_ROUNDS):
        grad = obj.gradient(Z, 2.0 * kappa * (V + U)[None])
        Z = Z - _block_tridiagonal_solve(diag, off, grad)[0]
        V = np.einsum("kij,kj->ki", P, obj.midpoints(Z)[0])
        U = U + V
        if np.abs(V).max() <= 1e-15 * scale:
            break
    return Z


def _next_faces(P: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Face projectors of the next polish pass: every run of chords pinned by
    P grows by one chord at each end into chords pinned less, and a chord
    takes its projector in seen (read from the resolvents) where that one
    pins more."""
    rank = np.trace(P, axis1=1, axis2=2)
    G = P.copy()
    from_left = rank[:-1] > rank[1:] + 0.5
    G[1:][from_left] = P[:-1][from_left]
    from_right = rank[1:] > rank[:-1] + 0.5
    G[:-1][from_right] = P[1:][from_right]
    more = np.trace(seen, axis1=1, axis2=2) > np.trace(G, axis1=1, axis2=2) + 0.5
    G[more] = seen[more]
    return G


def _polish_on_faces(obj: _Objective, Z: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Z moved onto the max_linear faces its midpoints' resolvents identify.

    Passes repeat while the true action drops, each on the face set of the
    last one grown by `_next_faces`: a smoothed minimizer slows down near a
    kink and reaches it late, so the faces it identifies make too short a
    rest there.
    """
    def true_value(Z):
        return discrete_action(obj.f, Path(times, obj.full_nodes(Z)[0])).total

    best = true_value(Z)
    P = _face_projectors(obj, Z)
    for _ in range(_FACE_PASSES):
        cand = _on_faces(obj, Z, P)
        value = true_value(cand)
        if not value < best:
            break
        Z, best = cand, value
        P_next = _next_faces(P, _face_projectors(obj, Z))
        if np.allclose(P_next, P, rtol=0.0, atol=1e-9):
            break
        P = P_next
    return Z


def _minimize_paths(f: ConvexFunction, X0: np.ndarray, XD: np.ndarray, delta: float,
                    config: MinimizeConfig | None = None,
                    stage_traces: list | None = None) -> list[MinimizeResult]:
    """`minimize_action` from each row of X0 (k, d) to that of XD in lockstep,
    path p's stage traces to stage_traces[p]; a result is bit-equal to its
    one-path solve when the kind's batched maps round each row alike."""
    cfg = _config(config)
    schedule = cfg.schedule_for(delta, f.lam)
    for tau in schedule:
        f.require_admissible(tau)

    k, n = X0.shape[0], cfg.N
    times = np.linspace(0.0, delta, n + 1)
    dt = delta / n
    s = np.linspace(0.0, 1.0, n + 1)[1:-1]
    Z = X0[:, None, :] + s[None, :, None] * (XD - X0)[:, None, :]
    if isinstance(f, Indicator):
        Z = f.region.project_many(Z.reshape(-1, f.dim)).reshape(Z.shape)

    total_iters, converged = np.zeros(k, dtype=int), np.ones(k, dtype=bool)
    for tau in schedule:
        obj = _Objective(f, tau, X0, XD, dt)
        # value_smoothed is the last stage's energy while Z is its iterate
        Z, accepted, hit, value_smoothed, traces = _stage(obj, Z, cfg)
        for path_traces, trace in zip(stage_traces or (), traces):
            path_traces.append(trace)
        total_iters += accepted
        converged &= hit
    if isinstance(f, Indicator):
        Z = f.region.project_many(Z.reshape(-1, f.dim)).reshape(Z.shape)
    if isinstance(f, MaxLinear):    # the polish works on one path, (1, N-1, d)
        Z = np.concatenate([_polish_on_faces(obj.paths([p]), Z[p:p + 1], times)
                            for p in range(k)])
    if isinstance(f, (Indicator, MaxLinear)):
        value_smoothed = obj.evaluate(Z)[0]

    paths = [Path(times, nodes) for nodes in obj.full_nodes(Z)]
    return [MinimizeResult(path=path, value_smoothed=float(value),
                           value_true=discrete_action(f, path).total,
                           iterations=int(iters), converged=bool(done),
                           tau_schedule=tuple(schedule))
            for path, value, iters, done in zip(paths, value_smoothed, total_iters, converged)]


def minimize_action(f: ConvexFunction, x0, xd, delta: float,
                    config: MinimizeConfig | None = None,
                    stage_traces: list | None = None) -> MinimizeResult:
    """Minimize the smoothed action over paths from x0 to xd on [0, delta].

    Runs the tau-continuation schedule with warm starts.  Running out of
    iterations is not an error (converged=False is returned instead), but a
    resolvent solver failure (a resolvent iteration that runs out of its
    iteration cap) propagates as SolverError.  Endpoints of the returned path
    are bit-equal to the inputs.  For indicator functions the initial segment
    and the final iterate are projected node-wise into the region; for
    max_linear the final iterate is moved onto the kink faces its midpoints
    identify when that lowers the true action.
    When stage_traces is a list, one list of accepted objective values is
    appended per continuation stage (descent audits hook in here).
    """
    delta = real_number(delta, "delta", positive=True)
    x0 = as_point(x0, f.dim, "x0")
    xd = as_point(xd, f.dim, "xd")
    traces = None if stage_traces is None else [stage_traces]
    return _minimize_paths(f, x0[None], xd[None], delta, config, traces)[0]


@malformed_input("closed-form case")
def closed_form_value(case: str, **params) -> float:
    """Reference minimal action values with known closed forms.

    "free": f identically zero; value |xd - x0|^2 / delta.
    "quadratic_1d": f(x) = x^2/2 in one dimension from a to b over delta;
    value ((a^2 + b^2) cosh(delta) - 2 a b) / sinh(delta).
    """
    if case == "free":
        delta = real_number(params["delta"], "delta", positive=True)
        if "displacement" in params:
            disp = np.atleast_1d(real_array(params["displacement"], "displacement"))
        else:
            disp = (np.atleast_1d(real_array(params["xd"], "xd"))
                    - np.atleast_1d(real_array(params["x0"], "x0")))
        return float(disp @ disp) / delta
    if case == "quadratic_1d":
        a = real_number(params["a"], "a")
        b = real_number(params["b"], "b")
        delta = real_number(params["delta"], "delta", positive=True)
        return ((a * a + b * b) * math.cosh(delta) - 2.0 * a * b) / math.sinh(delta)
    raise ConfigError(f"unknown closed-form case {case!r}")
