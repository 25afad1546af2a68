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


@dataclass(frozen=True)
class MinimizeResult:
    path: Path
    value_smoothed: float
    value_true: float
    iterations: int
    converged: bool
    tau_schedule: tuple[float, ...]


class _Objective:
    """Discretized smoothed action over the interior nodes, endpoints pinned."""

    def __init__(self, f: ConvexFunction, tau: float, x0: np.ndarray,
                 xd: np.ndarray, dt: float):
        self.f = f
        self.tau = tau
        self.x0 = x0
        self.xd = xd
        self.dt = dt

    def full_nodes(self, Z: np.ndarray) -> np.ndarray:
        return np.concatenate([self.x0[None, :], Z, self.xd[None, :]], axis=0)

    def midpoints(self, Z: np.ndarray) -> np.ndarray:
        X = self.full_nodes(Z)
        return 0.5 * (X[:-1] + X[1:])

    def evaluate(self, Z: np.ndarray, start: np.ndarray | None = None
                 ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        """Objective value at Z, with the midpoints and their resolvents;
        start, when given, is a guess of those resolvents."""
        X = self.full_nodes(Z)
        diffs = np.diff(X, axis=0)
        kinetic = float(np.einsum("ij,ij->i", diffs, diffs).sum()) / self.dt
        mids = 0.5 * (X[:-1] + X[1:])
        Y, _ = self.f.prox_many(self.tau, mids, start=start)
        G = (mids - Y) / self.tau
        phi = np.einsum("ij,ij->i", G, G)
        return kinetic + self.dt * float(phi.sum()), (mids, Y)

    def value(self, Z: np.ndarray) -> float:
        return self.evaluate(Z)[0]

    def kinetic_gradient(self, Z: np.ndarray) -> np.ndarray:
        X = self.full_nodes(Z)
        return (2.0 / self.dt) * (2.0 * X[1:-1] - X[:-2] - X[2:])

    def system(self, Z: np.ndarray, dphi: np.ndarray, S: np.ndarray):
        """Gradient and Hessian of kinetic + dt sum_i phi(m_i) at Z, from the
        gradient dphi (N, d) and Hessian S (N, d, d) of phi at each midpoint.

        The Hessian comes as its diagonal blocks (N-1, d, d) and the blocks
        coupling interior node j to j+1 (N-2, d, d).
        """
        dt = self.dt
        grad = self.kinetic_gradient(Z) + 0.5 * dt * (dphi[:-1] + dphi[1:])
        eye = np.eye(Z.shape[1])
        diag = (4.0 / dt) * eye + 0.25 * dt * (S[:-1] + S[1:])
        off = -(2.0 / dt) * eye + 0.25 * dt * S[1:-1]
        return grad, diag, off

    def newton_system(self, Z: np.ndarray, resolved: tuple[np.ndarray, np.ndarray]):
        """Derivatives of the objective at Z from the (midpoints, resolvents)
        of evaluate(Z), with K and C from one `envelope_derivatives_many`
        call: the exact gradient, the Gauss-Newton Hessian blocks (diag, off)
        from 2 K^2, the exact Newton blocks from 2 K^2 + 2 C (None when the
        kind gives C = 0, so Gauss-Newton is exact), and the envelope
        Hessians K at the midpoints."""
        mids, Y = resolved
        K, C = self.f.envelope_derivatives_many(self.tau, mids, Y)
        G = (mids - Y) / self.tau
        dphi = 2.0 * np.einsum("kij,kj->ki", K, G)
        S = 2.0 * np.einsum("kij,kil->kjl", K, K)
        grad, diag, off = self.system(Z, dphi, S)
        newton = None
        if C is not None:
            # the slope Hessian S + 2 C enters the blocks as S does, times dt/4
            newton = (diag + 0.5 * self.dt * (C[:-1] + C[1:]),
                      off + 0.5 * self.dt * C[1:-1])
        return grad, (diag, off), newton, K


def _definite_blocks(A: np.ndarray) -> bool:
    """Whether every symmetric block A[k] is positive definite: by its
    leading minors for 1x1 and 2x2 blocks, by its eigenvalues above."""
    d = A.shape[-1]
    if d == 1:
        return bool((A[:, 0, 0] > 0.0).all())
    if d == 2:
        a = A[:, 0, 0]
        return bool(((a > 0.0) & (a * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0] > 0.0)).all())
    return bool((np.linalg.eigvalsh(A)[:, 0] > 0.0).all())


def _block_tridiagonal_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray,
                             definite: bool = False) -> np.ndarray | None:
    """Solve the symmetric block-tridiagonal system with diagonal blocks diag
    (n, d, d) and off[j] (n-1, d, d) the block coupling unknown j to j+1 (its
    transpose couples j+1 to j), for rhs (n, d).

    Block cyclic reduction: each level eliminates the odd unknowns with one
    batched solve of their diagonal blocks, leaving a block-tridiagonal system
    in the even ones; once n*d <= _DENSE_SIZE it solves densely.

    With definite set, the solve also tests that the matrix is positive
    definite and returns None when it is not.  A level's matrix is positive
    definite exactly when the odd unknowns' diagonal blocks and the reduced
    system, their Schur complement, are; so each level tests those blocks and
    the dense base case tests by Cholesky.
    """
    n, d = rhs.shape
    if n * d <= _DENSE_SIZE:
        A = np.zeros((n, d, n, d))
        j = np.arange(n)
        A[j, :, j, :] = diag
        A[j[:-1], :, j[1:], :] = off
        A[j[1:], :, j[:-1], :] = off.transpose(0, 2, 1)
        A = A.reshape(n * d, n * d)
        if definite:
            try:
                np.linalg.cholesky(A)
            except np.linalg.LinAlgError:
                return None
        return np.linalg.solve(A, rhs.reshape(n * d)).reshape(n, d)
    if definite and not _definite_blocks(diag[1::2]):
        return None
    n_odd = n // 2
    n_even = n - n_odd
    left = off[0::2]                    # couples odd unknown 2o+1 to 2o
    right = np.zeros((n_odd, d, d))     # couples it to 2o+2 (none for the
    right[:n_even - 1] = off[1::2]      # last odd unknown when n is even)
    # odd unknown 2o+1 is w - Wl x_{2o} - Wr x_{2o+2}, W = [Wl | Wr | w]
    W = _solve_blocks(diag[1::2], np.concatenate(
        [left.transpose(0, 2, 1), right, rhs[1::2, :, None]], axis=2))
    # substituted into the even rows beside it: 2e+1 on the right of even e
    # (e < n_odd) and 2e+1 on the left of even e+1 (e < n_even - 1)
    LW = left @ W
    RW = right[:n_even - 1].transpose(0, 2, 1) @ W[:n_even - 1]
    red_diag = diag[0::2].copy()
    red_rhs = rhs[0::2].copy()
    red_diag[:n_odd] -= LW[..., :d]
    red_rhs[:n_odd] -= LW[..., 2 * d]
    red_diag[1:] -= RW[..., d:2 * d]
    red_rhs[1:] -= RW[..., 2 * d]
    even = _block_tridiagonal_solve(red_diag, -LW[:n_even - 1, :, d:2 * d], red_rhs,
                                    definite)
    if even is None:
        return None
    beside = np.zeros((n_odd, 2 * d))
    beside[:, :d] = even[:n_odd]
    beside[:n_even - 1, d:] = even[1:]
    x = np.empty_like(rhs)
    x[0::2] = even
    x[1::2] = W[..., 2 * d] - (W[..., :2 * d] @ beside[..., None])[..., 0]
    return x


def _stage(obj: _Objective, Z: np.ndarray, cfg: MinimizeConfig,
           trace: list | None = None) -> tuple[np.ndarray, int, bool, float]:
    """Damped Newton steps on obj from Z: the last iterate, its accepted step
    count, whether it met the stopping rule, and its energy.

    Each step solves the exact Newton system when the kind gives a curvature
    term and that Hessian is positive definite; otherwise (no term, or a
    Hessian whose step need not descend) it solves the Gauss-Newton system,
    positive definite by construction.  The stop measures the decrement in
    whichever Hessian made the step."""
    energy, resolved = obj.evaluate(Z)
    if trace is not None:
        trace.append(energy)
    disp = obj.xd - obj.x0
    segment = float(disp @ disp) / (obj.dt * (Z.shape[0] + 1))
    accepted = 0
    for _ in range(cfg.max_iters):
        grad, gauss_newton, newton, K = obj.newton_system(Z, resolved)
        direction = None
        if newton is not None:
            direction = _block_tridiagonal_solve(*newton, grad, definite=True)
        if direction is None:
            direction = _block_tridiagonal_solve(*gauss_newton, grad)
        decrement = float((grad * direction).sum())
        if decrement <= cfg.grad_tol**2 * max(segment, energy):
            return Z, accepted, True, energy
        # a trial moves the midpoints by -step dM and, to first order, their
        # resolvents Y by -step DJ dM with DJ = I - tau K
        D = np.pad(direction, ((1, 1), (0, 0)))
        dM = 0.5 * (D[:-1] + D[1:])
        dY = dM - obj.tau * np.einsum("kij,kj->ki", K, dM)
        Y = resolved[1]
        step = 1.0
        for _ls in range(60):
            candidate = Z - step * direction
            cand_energy, cand_resolved = obj.evaluate(candidate, Y - step * dY)
            # a step too short to change the energy is no progress, even
            # when the Armijo bound rounds to the energy itself
            if cand_energy < energy and \
                    cand_energy <= energy - _STEP_DECREASE * step * decrement:
                break
            step *= _STEP_SHRINK
        else:
            break  # no descent representable at this precision
        Z, energy, resolved = candidate, cand_energy, cand_resolved
        accepted += 1
        if trace is not None:
            trace.append(energy)
    return Z, accepted, False, energy


def _face_projectors(obj: _Objective, Z: np.ndarray) -> np.ndarray:
    """Per midpoint of Z, the projector onto the directions its max_linear
    resolvent pins: the midpoint lies on its face exactly when P m = 0."""
    _, (mids, Y) = obj.evaluate(Z)
    return obj.tau * obj.f.envelope_derivatives_many(obj.tau, mids, Y)[0]


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
    for _ in range(_FACE_ROUNDS):
        R = np.einsum("kij,kj->ki", P, obj.midpoints(Z)) + U
        grad, diag, off = obj.system(Z, 2.0 * kappa * R, S)
        Z = Z - _block_tridiagonal_solve(diag, off, grad)
        V = np.einsum("kij,kj->ki", P, obj.midpoints(Z))
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
        return discrete_action(obj.f, Path(times, obj.full_nodes(Z))).total

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
    cfg = config or MinimizeConfig()
    delta = real_number(delta, "delta", positive=True)
    x0 = as_point(x0, f.dim, "x0")
    xd = as_point(xd, f.dim, "xd")
    schedule = cfg.schedule_for(delta, f.lam)
    for tau in schedule:
        f.require_admissible(tau)

    n = cfg.N
    times = np.linspace(0.0, delta, n + 1)
    dt = delta / n
    s = np.linspace(0.0, 1.0, n + 1)[1:-1]
    Z = x0[None, :] + s[:, None] * (xd - x0)[None, :]
    if isinstance(f, Indicator):
        Z = f.region.project_many(Z)

    total_iters = 0
    converged = True
    for tau in schedule:
        obj = _Objective(f, tau, x0, xd, dt)
        trace = [] if stage_traces is not None else None
        # value_smoothed is the last stage's energy while Z is its iterate
        Z, accepted, hit, value_smoothed = _stage(obj, Z, cfg, trace)
        if stage_traces is not None:
            stage_traces.append(trace)
        total_iters += accepted
        converged = converged and hit
    if isinstance(f, Indicator):
        Z = f.region.project_many(Z)
        value_smoothed = None
    if isinstance(f, MaxLinear):
        Z = _polish_on_faces(obj, Z, times)
        value_smoothed = None

    nodes = np.concatenate([x0[None, :], Z, xd[None, :]], axis=0)
    path = Path(times, nodes)
    if value_smoothed is None:
        value_smoothed = obj.value(Z)
    value_true = discrete_action(f, path).total
    return MinimizeResult(
        path=path,
        value_smoothed=value_smoothed,
        value_true=value_true,
        iterations=total_iters,
        converged=converged,
        tau_schedule=tuple(schedule),
    )


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
