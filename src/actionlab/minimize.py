"""Endpoint-constrained minimization of the smoothed action functional.

The discretized objective on a uniform grid with pinned endpoints is

    E_tau(x_1..x_{N-1}) = sum |x_{i+1} - x_i|^2 / dt + dt * sum phi_tau(m_i),

with phi_tau = |grad f_tau|^2 at chord midpoints m_i, and tau run through a
decreasing continuation schedule with warm starts, ending at 0 (f itself, no
resolvent) where f is C^{1,1}: quadratic, squared_distance and log_sum_exp.
Where phi_tau is convex (quadratic, indicator, squared_distance), E_tau is
strictly convex and the schedule is only its last tau.

Each step is damped Newton, the minimum action method of E, Ren and
Vanden-Eijnden (2004) in the semismooth setting of Qi and Sun (1993).  With
G_i = grad f_tau(m_i), phi_tau has gradient 2 K_i G_i and Hessian
2 K_i^2 + 2 C_i, where K_i = grad^2 f_tau(m_i) and
C_i = sum_j G_ij grad^2 (d_j f_tau)(m_i) both come from one call of the
kind's `envelope_derivatives_many` (at tau = 0, of its `_derivatives`).  C
vanishes for quadratics and for piecewise-affine resolvents (max_linear, and
indicator and squared_distance on boxes and halfspaces); those kinds return
C = None, and their step is Gauss-Newton, which is exact for them.  For
log_sum_exp and ball regions K varies and C does not vanish; with it the step
is exact Newton, which converges quadratically near the minimizer where
Gauss-Newton converges only linearly.  The Hessian of E_tau is the kinetic
part (2/dt) tridiag(-1, 2, -1) plus (dt/4) times the slope Hessian of chord i
on the four blocks that chord couples: block tridiagonal, and solved by block
cyclic reduction.  The Gauss-Newton Hessian is positive definite by
construction; the Newton one need not be (C of log_sum_exp is indefinite), so
the reduction tests its pivots, and an iteration whose Newton Hessian is not
positive definite takes the Gauss-Newton step instead.  K and C are computed
once per accepted iterate from the midpoint resolvents (gradients at tau = 0)
of its line-search trial, so each trial costs one batch of them and nothing
else.  A resolvent batch starts from the first-order prediction
Y - s (I - tau K) dM, with Y the accepted iterate's resolvents and dM the
midpoints of the step s D; the iterative log_sum_exp resolvent then takes
fewer Newton iterations, and the closed-form kinds ignore the start.  Armijo
backtracking starts from the full step.  A stage stops when the decrement
g^T H^-1 g, in the Hessian that made the step, falls to
grad_tol^2 * max(|xd - x0|^2/delta, E_tau), a rule that does not depend on the
scale of the problem.  Where C = None, H dominates its kinetic part H_kin, so
a stop that g^T H_kin^-1 g (Boyd and Vandenberghe, sec. 9.5.1) meets needs no
Newton system.  A stage before the last also stops, with no Newton system
formed to confirm it, where Newton's quadratic convergence (Nocedal and
Wright, ch. 3) predicts it (see `_stage`); `converged` counts such stops.

For max_linear the slope jumps across kinks, which the smoothed minimizer
approaches but does not rest on.  After the last stage each midpoint's active
face is read from its resolvent, and the kinetic energy is minimized with every
midpoint held on its face (the slope is constant on a face, so this is the
true discrete problem for that face set).  That minimum is exact: along a
run of chords on one face the nodes alternate across the face and move
straight along it, so only the runs' end nodes are unknown, in one small
equality-constrained least-squares problem (`_on_faces`).  The result is kept
when it lowers the true action, and the step repeats, one pass at a time,
with every run of pinned midpoints grown by one chord at each end until the
action stops dropping (`_polish_on_faces`).

`_minimize_paths` runs k paths, in lockstep where their functions f_p =
c_p g(L_p .) share a unit member g (`convex._unit_scale`), as a Mosco family's
members do; `minimize_action` is its k = 1 case.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .action import Path, _midpoint_actions, discrete_action
from .convex import ConvexFunction, Indicator, MaxLinear, _unit_scale, tau_cap
from .errors import (ConfigError, as_point, malformed_input, real_number,
                     whole_number)

_STEP_SHRINK = 0.5      # Armijo backtracking from the full Newton step: shrink
_STEP_DECREASE = 1e-4   # factor and sufficient-decrease constant
_DENSE_SIZE = 32        # block cyclic reduction solves densely at n*d <= this
_FACE_PASSES = 64       # kink-face polish: identify-then-solve passes


@dataclass(frozen=True)
class MinimizeConfig:
    """Resolution N (intervals), max_iters accepted steps per stage, and the
    dimensionless stopping tolerance grad_tol: a stage stops once the Newton
    decrement g^T H^-1 g is at most grad_tol^2 times the larger of the straight
    segment's kinetic energy |xd - x0|^2/delta and the current objective."""

    N: int = 256
    max_iters: int = 600
    grad_tol: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "N", whole_number(self.N, "N"))
        object.__setattr__(self, "max_iters", whole_number(self.max_iters, "max_iters"))
        object.__setattr__(self, "grad_tol",
                           real_number(self.grad_tol, "grad_tol", positive=True))


def _schedule(delta: float, f: ConvexFunction) -> tuple[float, ...]:
    """f's tau schedule (`ConvexFunction._tau_factors`) for horizon delta,
    scaled down as a whole where needed to keep every tau, and the full
    continuation's first, 0.5 delta, within tau_cap(f.lam)."""
    factor = min(1.0, tau_cap(f.lam) / (0.5 * delta))
    return tuple(t * delta * factor for t in f._tau_factors)


def _config(config) -> MinimizeConfig:
    if config is not None and not isinstance(config, MinimizeConfig):
        raise ConfigError(f"config must be a MinimizeConfig or None, "
                          f"got {type(config).__name__}")
    return config or MinimizeConfig()


@dataclass(frozen=True)
class MinimizeResult:
    """The minimizing path and its smoothed and true actions, equal up to
    rounding where the last tau is 0.  stage_energies holds, per stage (one
    where phi_tau is convex), the objective at the stage's start and after
    each accepted step; iterations counts those steps.  converged counts a
    predicted stop as met (`_stage`) and is False whenever value_true is
    infinite: there is no minimum."""

    path: Path
    value_smoothed: float
    value_true: float
    iterations: int
    converged: bool
    tau_schedule: tuple[float, ...]
    stage_energies: tuple[tuple[float, ...], ...]


class _Objective:
    """Discretized smoothed action of k paths over their interior nodes
    (k, N-1, d), each with its endpoints X0[p] and XD[p] pinned, path p on
    f_p = c[p] f(L[p] .) for scale = (s, L), s = c L^2 (default 1): one call
    of f on the rows L m with tau s tau serves every path."""

    def __init__(self, f: ConvexFunction, tau: float, X0: np.ndarray,
                 XD: np.ndarray, dt: float, scale: np.ndarray | None = None):
        self.f = f
        self.tau = tau
        self.X0 = X0
        self.XD = XD
        self.dt = dt
        self.s, self.L = np.ones((2, len(X0))) if scale is None else scale
        self.unit = bool((self.s == 1.0).all())     # f's tau is then one number

    def paths(self, idx) -> _Objective:
        return _Objective(self.f, self.tau, self.X0[idx], self.XD[idx], self.dt,
                          (self.s[idx], self.L[idx]))

    def _f_taus(self, n: int):
        """f's tau for k paths of n rows each: one number at unit scale."""
        return self.tau if self.unit else np.repeat(self.tau * self.s, n)

    def _f_rows(self, A: np.ndarray) -> np.ndarray:
        """The points A (k, n, d) of the paths as rows of f's, L A."""
        return (self.L[:, None, None] * A).reshape(-1, A.shape[2])

    def full_nodes(self, Z: np.ndarray) -> np.ndarray:
        return np.concatenate([self.X0[:, None], Z, self.XD[:, None]], axis=1)

    def evaluate(self, Z: np.ndarray, start: np.ndarray | None = None
                 ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Objective values (k,) at Z, with the midpoints and their resolvents
        (k, N, d) from one `prox_many` call over every path's rows (at tau = 0
        f_p's gradients, from `subgradient_many`); start guesses resolvents."""
        X = self.full_nodes(Z)
        diffs = X[:, 1:] - X[:, :-1]
        kinetic = np.einsum("pij,pij->pi", diffs, diffs).sum(axis=1) / self.dt
        mids = 0.5 * (X[:, :-1] + X[:, 1:])
        if self.tau:
            Y = self.f.prox_many(self._f_taus(mids.shape[1]), self._f_rows(mids),
                                 start=None if start is None else self._f_rows(start))[0]
            Y = Y.reshape(mids.shape) / self.L[:, None, None]
            G = (mids - Y) / self.tau
        else:   # grad f_p(m) = c L grad f(L m) = (s/L) grad f(L m)
            Y = G = (self.f.subgradient_many(self._f_rows(mids)).reshape(mids.shape)
                     * (self.s / self.L)[:, None, None])
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

    def derivatives(self, Z: np.ndarray, resolved: tuple[np.ndarray, np.ndarray]):
        """The exact gradient of the objective at Z from the (midpoints,
        resolvents or gradients) (k, N, d) of evaluate(Z), and K and C
        (k N, d, d) of each path's own function at the midpoints, from one
        `envelope_derivatives_many` (tau = 0: `_derivatives`) call."""
        mids, Y = resolved
        k, n, d = mids.shape
        K, C = (self.f.envelope_derivatives_many(self._f_taus(n), self._f_rows(mids),
                                                 self._f_rows(Y))
                if self.tau else self.f._derivatives(0.0, self._f_rows(mids)))
        G = (mids - Y) / self.tau if self.tau else Y
        if not self.unit:   # f_p's K and C: s K, s^2 C (else a broadcast K stays a view)
            s = np.repeat(self.s, n)[:, None, None]
            K, C = s * K, None if C is None else s * s * C
        dphi = 2.0 * np.einsum("kij,kj->ki", K, G.reshape(k * n, d))
        return self.gradient(Z, dphi.reshape(k, n, d)), K, C

    def kinetic_decrement(self, grad: np.ndarray) -> np.ndarray:
        """Per path, g^T H_kin^-1 g, H_kin = (2/dt) D^T D (x) I the kinetic
        Hessian: (dt/2) sum_c N Var(U_c), U_c the prefix sums of g_c, 0 first."""
        U = np.zeros((grad.shape[0], grad.shape[1] + 1, grad.shape[2]))
        np.cumsum(grad, axis=1, out=U[:, 1:])
        U -= U.mean(axis=1, keepdims=True)
        return 0.5 * self.dt * np.einsum("pij,pij->p", U, U)

    def newton_system(self, K: np.ndarray, C: np.ndarray | None):
        """Gauss-Newton Hessian blocks (diag, off) from 2 K^2, and exact Newton
        ones from 2 K^2 + 2 C, None where C is (Gauss-Newton is then exact)."""
        k, d = len(self.X0), K.shape[-1]
        S = 2.0 * np.einsum("kij,kil->kjl", K, K)
        diag, off = self.hessian(S.reshape(k, -1, d, d))
        if C is None:
            return (diag, off), None
        # the slope Hessian S + 2 C enters the blocks as S does, times dt/4
        C = C.reshape(k, -1, d, d)
        return (diag, off), (diag + 0.5 * self.dt * (C[:, :-1] + C[:, 1:]),
                             off + 0.5 * self.dt * C[:, 1:-1])


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

    With definite set, a path whose matrix is not positive definite is left
    unsolved.  A level's matrix is positive definite exactly when the odd
    unknowns' diagonal blocks and the reduced system, their Schur complement,
    are: each level tests those blocks by the pivots `_solve_blocks` forms,
    the dense base case tests by Cholesky, and a level where some path fails
    solves the others again.
    """
    x, ok = _reduce(diag.swapaxes(0, 1), off.swapaxes(0, 1), rhs.swapaxes(0, 1), definite)
    return x.swapaxes(0, 1), ok


def _solve_blocks(A: np.ndarray, B: np.ndarray, definite: bool = False):
    """(A^-1 B per block over any leading axes, False): 1x1 and 2x2 blocks in
    closed form, several times faster than a batched LAPACK call on blocks
    this small.  With definite set, False becomes a mask over the second axis:
    whether every symmetric block along the first is positive definite, by
    the leading minors the closed forms use (eigenvalues above 2x2).  Unless
    all are, nothing is solved and the solution is None."""
    d = A.shape[-1]
    if d == 2:
        a, b, c, e = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
        det = a * e - b * c
    ok = definite and (A[..., 0, 0] > 0.0 if d == 1 else (a > 0.0) & (det > 0.0) if d == 2
                       else np.linalg.eigvalsh(A)[..., 0] > 0.0).all(axis=0)
    if definite and not ok.all():
        return None, ok
    if d == 1:
        return B / A, ok
    if d == 2:
        adj = np.stack([e, -b, -c, a], axis=-1).reshape(A.shape)
        return (adj / det[..., None, None]) @ B, ok
    return np.linalg.solve(A, B), ok


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
        ok = np.ones(k, dtype=bool)
        if definite:
            try:
                np.linalg.cholesky(A)
            except np.linalg.LinAlgError:   # find the paths that failed
                for p in range(k):
                    try:
                        np.linalg.cholesky(A[p])
                    except np.linalg.LinAlgError:
                        ok[p] = False
    else:
        n_odd, n_even = n // 2, n - n // 2
        left = off[0::2]                        # couples odd unknown 2o+1 to 2o
        right = np.zeros((n_odd, k, d, d))      # couples it to 2o+2 (none for the
        right[:n_even - 1] = off[1::2]          # last odd unknown when n is even)
        # odd unknown 2o+1 is w - Wl x_{2o} - Wr x_{2o+2}, W = [Wl | Wr | w]
        W, ok = _solve_blocks(diag[1::2], np.concatenate(
            [left.swapaxes(-1, -2), right, rhs[1::2, ..., None]], axis=-1), definite)
    if definite and not ok.all():
        # the paths that passed go on alone (a dense pass needs no retest)
        x = np.zeros_like(rhs)
        x[:, ok], ok[ok] = _reduce(diag[:, ok], off[:, ok], rhs[:, ok], not dense)
        return x, ok
    if dense:
        x = np.linalg.solve(A, rhs.swapaxes(0, 1).reshape(k, n * d, 1))
        return x.reshape(k, n, d).swapaxes(0, 1), ok
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


def _stage(obj: _Objective, Z: np.ndarray, cfg: MinimizeConfig, last: bool
           ) -> tuple[np.ndarray, list[bool], list[list[float]]]:
    """Damped Newton steps on obj from Z (k, N-1, d), the k paths in
    lockstep: per path the last iterate, whether it met the stopping rule,
    and its energies, the start's and then each accepted step's.

    A step solves the exact Newton system when the kind gives a curvature
    term and that path's Hessian is positive definite, else the Gauss-Newton
    one; the stop measures the decrement in the Hessian that made the step,
    or the kinetic bound over it where C = None, before any Newton system.
    The paths still searching share a step length and a resolvent batch per
    trial, each with its own Armijo test.  Unless last, a path also stops
    after a full step that was not a Gauss-Newton fallback, when its
    decrement r <= grad_tol * max(|xd - x0|^2/delta, E_tau) and the rate seen,
    r (r / r_before)^2, predict the next one under the stop: near a singular
    Hessian Newton is only linear, and r alone would stop a path short."""
    values, (mids, Y) = obj.evaluate(Z)
    traces = [[e] for e in values.tolist()]
    segment = [float(v @ v) / (obj.dt * (Z.shape[1] + 1)) for v in obj.XD - obj.X0]
    Z_end, hit = np.empty_like(Z), [False] * len(traces)
    sure, before = [False] * len(traces), [0.0] * len(traces)   # predicted stops
    # the paths still stepping; obj, Z, mids and Y hold their rows in order
    run = list(range(len(traces)))
    for _ in range(cfg.max_iters):
        grad, K, C = obj.derivatives(Z, (mids, Y))
        scale = [max(segment[p], traces[p][-1]) for p in run]
        # without C, H = H_kin + PSD blocks: a stop g^T H_kin^-1 g meets is met
        if C is None and all(r <= cfg.grad_tol**2 * s for r, s in
                             zip(obj.kinetic_decrement(grad).tolist(), scale)):
            hit = [h or p in run for p, h in enumerate(hit)]
            break
        gauss_newton, newton = obj.newton_system(K, C)
        direction, ok = _block_tridiagonal_solve(*(newton or gauss_newton), grad,
                                                 definite=newton is not None)
        if not ok.all():
            direction[~ok] = _block_tridiagonal_solve(*(b[~ok] for b in gauss_newton),
                                                      grad[~ok])[0]
        decrement = (grad * direction).reshape(len(run), -1).sum(axis=1).tolist()
        for i, p in enumerate(run):
            hit[p] = decrement[i] <= cfg.grad_tol**2 * scale[i]
            sure[p] = (not last and ok[i] and decrement[i] <= cfg.grad_tol * scale[i]
                       and decrement[i]**3 <= (cfg.grad_tol * before[p])**2 * scale[i])
            before[p] = decrement[i]
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
                trace = traces[run[i]]
                # a step too short to change the energy is no progress, even
                # when the Armijo bound rounds to the energy itself
                if c < trace[-1] and c <= trace[-1] - _STEP_DECREASE * step * decrement[i]:
                    good.append(j)
                    hit[run[i]] = step == 1.0 and sure[run[i]]
                    trace.append(c)
            if len(good) == len(run):
                Z, mids, Y = candidate, cand_mids, cand_Y
            elif good:
                took = [search[j] for j in good]
                Z[took], mids[took], Y[took] = candidate[good], cand_mids[good], cand_Y[good]
            search = [i for j, i in enumerate(search) if j not in good]
            step *= _STEP_SHRINK
        # the rows still searching found no descent representable at this
        # precision; they leave with the ones that met or predicted their stop
        stays = [i for i in moving if i not in search and not hit[run[i]]]
        if not stays:
            break
        if len(stays) < len(run):
            Z_end[run] = Z
            run = [run[i] for i in stays]
            Z, mids, Y, obj = Z[stays], mids[stays], Y[stays], obj.paths(stays)
    Z_end[run] = Z
    return Z_end, hit, traces


def _on_faces(x0: np.ndarray, xd: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Interior nodes (N-1, d) of least kinetic energy from x0 to xd with every
    chord midpoint on its face, P_i (x_i + x_{i+1}) = 0 for the projectors P
    (N, d, d): exact, by the null-space method (Nocedal and Wright, sec. 16.2)
    over the end nodes b_0 = x0, ..., b_S = xd of the runs of equal P.

    On a run of L chords with projector P from u to v, P x alternates, so
    P v = (-1)^L P u, and (I - P) x runs straight: the run's energy is
    (|(I - P)(v - u)|^2 / L + 4 L |P u|^2) / dt.  The projectors of
    neighbouring runs need not commute; the constraints may repeat where they
    overlap, or fail to meet where every chord is pinned, and the SVD of the
    constraints gives them their least-squares point.
    """
    N, d = P.shape[:2]
    ends = np.flatnonzero(np.concatenate([[True], (P[1:] != P[:-1]).any(axis=(1, 2)), [True]]))
    L, R = np.diff(ends), P[ends[:-1]]          # per run: its chords and projector
    S, s, root = len(L), np.arange(len(L)), np.sqrt(L)[:, None, None]
    A = np.zeros((S, 2, d, S + 1, d))           # the energy |A b|^2 (times dt)
    A[s, 0, :, s + 1] = (np.eye(d) - R) / root
    A[s, 0, :, s] = -A[s, 0, :, s + 1]
    A[s, 1, :, s] = 2.0 * root * R
    C = np.zeros((S + 2, d, S + 1, d))          # the constraints C b = (0, x0, xd)
    C[s, :, s], C[s, :, s + 1] = -((-1.0) ** L)[:, None, None] * R, R
    C[S, :, 0] = C[S + 1, :, S] = np.eye(d)
    A, C = A.reshape(-1, (S + 1) * d), C.reshape(-1, (S + 1) * d)
    U, sv, Vt = np.linalg.svd(C)
    r = int((sv > sv[0] * np.finfo(float).eps * max(C.shape)).sum())   # numpy's rank
    b = Vt[:r].T @ (U[-2 * d:, :r].T @ np.concatenate([x0, xd]) / sv[:r])
    free = Vt[r:].T                             # C's null space
    b = (b + free @ np.linalg.lstsq(A @ free, -(A @ b))[0]).reshape(S + 1, d)
    W = b[1:] - b[:-1]
    step = (W - np.einsum("sij,sj->si", R, W)) / L[:, None]
    Pb = np.einsum("sij,sj->si", R, b[:-1])
    run = np.repeat(s, L)                       # chord i's run, and its place in it
    j = np.arange(N) - ends[run]
    # node i, where chord i starts: j steps along the face from b_s, and
    # -P b_s across it where j is odd
    return (b[run] + j[:, None] * step[run] - 2.0 * (j % 2)[:, None] * Pb[run])[1:]


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


def _polish_on_faces(obj: _Objective, Z: np.ndarray, times: np.ndarray
                     ) -> tuple[np.ndarray, float]:
    """Z (1, N-1, d) moved onto the max_linear faces its midpoints' resolvents
    identify, and its true action on f (a max_linear f is at unit scale).

    Passes repeat while the true action drops, each on the face set of the
    last one grown by `_next_faces`: a smoothed minimizer slows down near a
    kink and reaches it late, so the faces it identifies make too short a
    rest there.  The polish stops where the faces grow no further, or after
    _FACE_PASSES passes.
    """
    def true_value(Z):
        return float(np.add(*_midpoint_actions(obj.f, times[None], obj.full_nodes(Z)))[0])

    def faces(Z):
        """Per midpoint of Z, the projector P = tau K onto the directions its
        resolvent pins: P m = 0 exactly on its face."""
        mids, Y = obj.evaluate(Z)[1]
        return obj.tau * obj.f.envelope_derivatives_many(obj.tau, mids[0], Y[0])[0]

    best, P = true_value(Z), faces(Z)
    for _ in range(_FACE_PASSES):
        cand = _on_faces(obj.X0[0], obj.XD[0], P)[None]
        value = true_value(cand)
        if not value < best:
            break
        Z, best = cand, value
        grown = _next_faces(P, faces(Z))
        if np.abs(grown - P).max() <= 1e-9:
            break                   # the faces grow no further
        P = grown
    return Z, best


def _minimize_paths(fs, X0: np.ndarray, XD: np.ndarray, delta: float,
                    config: MinimizeConfig | None = None) -> list[MinimizeResult]:
    """`minimize_action` of fs[p] from row p of X0 (k, d) to that of XD, in
    input order.  Paths whose fs share a unit member (`_unit_scale`; an exact
    log_sum_exp or squared_distance by value, others by identity) run in
    lockstep on the group's first f, path p at its unit scale over f's: bit-equal
    to its one-path solve when that is 1 and f's batches round each row alike."""
    from .serialize import to_plain     # serialize imports this module
    cfg = _config(config)
    units, groups = {}, {}
    for p, g in enumerate(fs):
        if id(g) not in units:          # one unit member per function object
            unit, c, L = _unit_scale(g)
            units[id(g)] = id(g) if unit is g else repr(to_plain(unit)), c, L
        groups.setdefault(units[id(g)][0], []).append(p)
    times = np.linspace(0.0, delta, cfg.N + 1)
    dt = delta / cfg.N
    s = np.linspace(0.0, 1.0, cfg.N + 1)[1:-1]
    results = [None] * len(fs)
    for ps in groups.values():
        f = fs[ps[0]]
        schedule = _schedule(delta, f) if dt >= sys.float_info.min else ()  # (it divides by delta)
        if not schedule or any(0.0 < t < sys.float_info.min for t in schedule):
            raise ConfigError(f"delta={delta!r} is too small: delta/N and every positive "
                              f"tau must be normal floats")
        c, L = (np.array([units[id(fs[p])][1:] for p in ps]) / units[id(f)][1:]).T
        A, B = X0[ps], XD[ps]
        Z = A[:, None, :] + s[None, :, None] * (B - A)[:, None, :]
        if isinstance(f, Indicator):
            Z = f.region.project_many(Z.reshape(-1, f.dim)).reshape(Z.shape)
        by_stage, converged = [], np.ones(len(ps), dtype=bool)
        for tau in schedule:
            obj = _Objective(f, tau, A, B, dt, (c * L * L, L))
            Z, hit, traces = _stage(obj, Z, cfg, tau == schedule[-1])
            by_stage.append(traces)
            converged &= hit
        energies = [tuple(map(tuple, path)) for path in zip(*by_stage)]
        # value_smoothed is the last stage's energy while Z is its iterate
        value_smoothed = [path[-1][-1] for path in energies]
        if isinstance(f, Indicator):
            Z = f.region.project_many(Z.reshape(-1, f.dim)).reshape(Z.shape)
        polished = [None] * len(ps)     # the polish's true actions on f
        if isinstance(f, MaxLinear):    # the polish works on one path, (1, N-1, d)
            Z, polished = zip(*[_polish_on_faces(obj.paths([i]), Z[i:i + 1], times)
                                for i in range(len(ps))])
            Z = np.concatenate(Z)
        if isinstance(f, (Indicator, MaxLinear)):
            value_smoothed = obj.evaluate(Z)[0]
        for p, nodes, value, true, stages, done in zip(
                ps, obj.full_nodes(Z), value_smoothed, polished, energies, converged):
            path = Path(times, nodes)
            true = discrete_action(fs[p], path).total if true is None else true
            results[p] = MinimizeResult(
                path=path, value_smoothed=float(value), value_true=true,
                iterations=sum(len(trace) - 1 for trace in stages), tau_schedule=schedule,
                converged=bool(done) and math.isfinite(true), stage_energies=stages)
    return results


def minimize_action(f: ConvexFunction, x0, xd, delta: float,
                    config: MinimizeConfig | None = None) -> MinimizeResult:
    """Minimize the smoothed action over paths from x0 to xd on [0, delta].

    Runs the tau-continuation schedule with warm starts; the schedule is fixed
    by delta and the modulus of f, and the result reports it with the energies
    of every stage.  It ends at tau = 0, on the true discrete action, for
    quadratic, squared_distance and log_sum_exp; quadratic, indicator and
    squared_distance run only its last tau, where E_tau is strictly convex.  A
    stage before the last may end on Newton's predicted stop, which converged
    counts as met.  Running out of iterations, or an indicator endpoint outside
    its region (value_true = inf), is not an error (converged=False is
    returned instead), but a resolvent solver failure (a resolvent iteration
    that runs out of its iteration cap) propagates as SolverError.  Endpoints
    of the returned path are bit-equal to the inputs.  For indicator functions
    the initial segment and the final iterate are projected node-wise into the
    region; for max_linear the final iterate is moved onto the kink faces its
    midpoints identify when that lowers the true action.
    """
    delta = real_number(delta, "delta", positive=True)
    x0 = as_point(x0, f.dim, "x0")
    xd = as_point(xd, f.dim, "xd")
    return _minimize_paths([f], x0[None], xd[None], delta, config)[0]


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
            disp = as_point(params["displacement"], name="displacement")
        else:
            x0 = as_point(params["x0"], name="x0")
            disp = as_point(params["xd"], x0.size, "xd") - x0
        return float(disp @ disp) / delta
    if case == "quadratic_1d":
        a = real_number(params["a"], "a")
        b = real_number(params["b"], "b")
        delta = real_number(params["delta"], "delta", positive=True)
        return ((a * a + b * b) * math.cosh(delta) - 2.0 * a * b) / math.sinh(delta)
    raise ConfigError(f"unknown closed-form case {case!r}")
