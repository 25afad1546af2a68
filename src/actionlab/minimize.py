"""Endpoint-constrained minimization of the smoothed action functional.

The discretized objective on a uniform grid with pinned endpoints is

    E_tau(x_1..x_{N-1}) = sum |x_{i+1} - x_i|^2 / dt + dt * sum phi_tau(m_i),

with phi_tau = |envelope gradient|^2 evaluated at chord midpoints m_i through
the resolvent, and tau run through a decreasing continuation schedule with
warm starts.  Descent is Armijo-backtracked and preconditioned with the fixed
kinetic Hessian (2/dt) tridiag(-1, 2, -1) (a Sobolev gradient - plain
Euclidean descent needs O(N^2) iterations on this functional), inverted in
closed form through its discrete Green's function.

The gradient of phi_tau is exact, (2/tau)(I - DJ_tau) grad f_tau from each
kind's `envelope_sq_gradient_many`, and reuses the midpoint resolvents that
the accepted line-search trial computed for its value: one resolvent batch
per trial point, none for the gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import Path, discrete_action
from .convex import ConvexFunction, Indicator, as_point
from .errors import ConfigError

DEFAULT_TAU_FACTORS = (0.5, 0.1, 0.02, 0.004)
_STEP_INITIAL = 1.0     # Armijo backtracking: first trial step,
_STEP_SHRINK = 0.5      # its shrink factor,
_STEP_DECREASE = 1e-4   # and the sufficient-decrease constant


def _parse(convert, value, name: str, what: str):
    """convert(value), or a ConfigError naming the setting when that fails."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be {what}, got {value!r}") from None


@dataclass(frozen=True)
class MinimizeConfig:
    N: int = 256
    tau_schedule: tuple[float, ...] | None = None
    max_iters: int = 600
    grad_tol: float = 1e-5

    def __post_init__(self):
        N = _parse(int, self.N, "N", "an integer")
        if N < 1:
            raise ConfigError("N must be at least 1")
        object.__setattr__(self, "N", N)
        if self.tau_schedule is not None:
            sched = _parse(lambda v: tuple(float(t) for t in v), self.tau_schedule,
                           "tau_schedule", "a list of numbers")
            if len(sched) == 0 or any(t <= 0 for t in sched):
                raise ConfigError("tau schedule must be nonempty and positive")
            if any(b >= a for a, b in zip(sched, sched[1:])):
                raise ConfigError("tau schedule must be strictly decreasing")
            object.__setattr__(self, "tau_schedule", sched)
        max_iters = _parse(int, self.max_iters, "max_iters", "an integer")
        if max_iters < 1:
            raise ConfigError("max_iters must be positive")
        object.__setattr__(self, "max_iters", max_iters)
        grad_tol = _parse(float, self.grad_tol, "grad_tol", "a number")
        if not (grad_tol > 0):
            raise ConfigError("grad_tol must be positive")
        object.__setattr__(self, "grad_tol", grad_tol)

    def schedule_for(self, delta: float, lam: float) -> tuple[float, ...]:
        if self.tau_schedule is not None:
            return self.tau_schedule
        factor = 1.0
        if lam < 0:
            # keep the whole default schedule admissible with margin
            factor = min(1.0, 0.45 / (-lam) / (DEFAULT_TAU_FACTORS[0] * delta))
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

    def evaluate(self, Z: np.ndarray) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        """Objective value at Z, with the midpoints and their resolvents."""
        X = self.full_nodes(Z)
        diffs = np.diff(X, axis=0)
        kinetic = float(np.einsum("ij,ij->i", diffs, diffs).sum()) / self.dt
        mids = 0.5 * (X[:-1] + X[1:])
        Y, _ = self.f.prox_many(self.tau, mids)
        G = (mids - Y) / self.tau
        phi = np.einsum("ij,ij->i", G, G)
        return kinetic + self.dt * float(phi.sum()), (mids, Y)

    def value(self, Z: np.ndarray) -> float:
        return self.evaluate(Z)[0]

    def kinetic_gradient(self, Z: np.ndarray) -> np.ndarray:
        X = self.full_nodes(Z)
        return (2.0 / self.dt) * (2.0 * X[1:-1] - X[:-2] - X[2:])

    def gradient(self, Z: np.ndarray, resolved: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Exact gradient at Z from the (midpoints, resolvents) of evaluate(Z)."""
        dphi = self.f.envelope_sq_gradient_many(self.tau, *resolved)
        return self.kinetic_gradient(Z) + self.dt * 0.5 * (dphi[:-1] + dphi[1:])

    def value_and_grad(self, Z: np.ndarray) -> tuple[float, np.ndarray]:
        energy, resolved = self.evaluate(Z)
        return energy, self.gradient(Z, resolved)


def _kinetic_solve(G: np.ndarray, dt: float) -> np.ndarray:
    """Solve (2/dt) tridiag(-1, 2, -1) U = G column-wise in O(n).

    With T = tridiag(-1, 2, -1) of size n, the discrete Green's function is
    (T^-1)_ij = min(i, j) (n + 1 - max(i, j)) / (n + 1) for 1-based i, j, so
    U_i = (dt/2) [(n+1-i) sum_{j<=i} j G_j + i sum_{j>i} (n+1-j) G_j] / (n+1).
    """
    n = G.shape[0]
    i = np.arange(1.0, n + 1.0)[:, None]
    below = np.cumsum(i * G, axis=0)
    above = np.zeros_like(G)
    above[:-1] = np.cumsum(((n + 1.0 - i) * G)[:0:-1], axis=0)[::-1]
    return (0.5 * dt / (n + 1.0)) * ((n + 1.0 - i) * below + i * above)


def _stage(obj: _Objective, Z: np.ndarray, cfg: MinimizeConfig,
           trace: list | None = None) -> tuple[np.ndarray, int, bool]:
    alpha = _STEP_INITIAL
    energy, grad = obj.value_and_grad(Z)
    if trace is not None:
        trace.append(energy)
    accepted = 0
    hit_tol = False
    for _ in range(cfg.max_iters):
        if np.abs(grad).max() <= cfg.grad_tol:
            hit_tol = True
            break
        direction = _kinetic_solve(grad, obj.dt)
        decrease = float((grad * direction).sum())
        if decrease <= 0.0:
            direction = grad
            decrease = float((grad * grad).sum())
        step = alpha
        trial = None
        for _ls in range(60):
            candidate = Z - step * direction
            cand_energy, resolved = obj.evaluate(candidate)
            if cand_energy <= energy - _STEP_DECREASE * step * decrease:
                trial = candidate
                break
            step *= _STEP_SHRINK
        if trial is None:
            break  # no descent representable at this precision
        Z = trial
        accepted += 1
        energy, grad = cand_energy, obj.gradient(Z, resolved)
        if trace is not None:
            trace.append(energy)
        alpha = min(step / _STEP_SHRINK, _STEP_INITIAL)
    return Z, accepted, hit_tol


def minimize_action(f: ConvexFunction, x0, xd, delta: float,
                    config: MinimizeConfig | None = None,
                    stage_traces: list | None = None) -> MinimizeResult:
    """Minimize the smoothed action over paths from x0 to xd on [0, delta].

    Runs the tau-continuation schedule with warm starts.  Running out of
    iterations is not an error (converged=False is returned instead), but a
    resolvent solver failure, such as a stalled smoothed-max Newton solve,
    propagates as SolverError.  Endpoints of the returned path are bit-equal
    to the inputs.  For indicator functions the initial segment and the final
    iterate are projected node-wise into the region.
    When stage_traces is a list, one list of accepted objective values is
    appended per continuation stage (descent audits hook in here).
    """
    cfg = config or MinimizeConfig()
    delta = float(delta)
    if not (np.isfinite(delta) and delta > 0):
        raise ConfigError("delta must be positive")
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
    obj = None
    for tau in schedule:
        obj = _Objective(f, tau, x0, xd, dt)
        if n >= 2:
            trace = [] if stage_traces is not None else None
            Z, accepted, hit = _stage(obj, Z, cfg, trace)
            if stage_traces is not None:
                stage_traces.append(trace)
            total_iters += accepted
            converged = converged and hit
    if isinstance(f, Indicator) and n >= 2:
        Z = f.region.project_many(Z)

    nodes = np.concatenate([x0[None, :], Z, xd[None, :]], axis=0)
    path = Path(times, nodes)
    value_smoothed = obj.value(Z) if obj is not None else math.nan
    value_true = discrete_action(f, path).total
    return MinimizeResult(
        path=path,
        value_smoothed=value_smoothed,
        value_true=value_true,
        iterations=total_iters,
        converged=converged,
        tau_schedule=tuple(schedule),
    )


def closed_form_value(case: str, **params) -> float:
    """Reference minimal action values with known closed forms.

    "free": f identically zero; value |xd - x0|^2 / delta.
    "quadratic_1d": f(x) = x^2/2 in one dimension from a to b over delta;
    value ((a^2 + b^2) cosh(delta) - 2 a b) / sinh(delta).
    """
    if case == "free":
        delta = float(params["delta"])
        if "displacement" in params:
            disp = np.atleast_1d(np.asarray(params["displacement"], dtype=float))
        else:
            disp = (np.atleast_1d(np.asarray(params["xd"], dtype=float))
                    - np.atleast_1d(np.asarray(params["x0"], dtype=float)))
        if delta <= 0:
            raise ConfigError("delta must be positive")
        return float(disp @ disp) / delta
    if case == "quadratic_1d":
        a = float(params["a"])
        b = float(params["b"])
        delta = float(params["delta"])
        if delta <= 0:
            raise ConfigError("delta must be positive")
        return ((a * a + b * b) * math.cosh(delta) - 2.0 * a * b) / math.sinh(delta)
    raise ConfigError(f"unknown closed-form case {case!r}")
