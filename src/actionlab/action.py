"""Discrete paths and the action functional int |gamma'|^2 + |grad f|^2(gamma).

Paths are piecewise linear: the kinetic term sum |dx|^2/dt is exact for the
interpolant, the slope term is a quadrature (chord-midpoint by default,
node-trapezoid as the alternative).  The module also builds the two explicit
curves the estimates are proved with: the resolvent image of a tilted segment
(`interpolation_path`) and the patched recovery curve (`recovery_path`).

The scalar entry points are the one-path case of batched primitives, which
each action-scope verify check calls once per function with every trial as
a row: a coarse path is its fine path's even nodes, and the endpoint
residuals are rows of that same resolvent batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import (ConvexFunction, _check_admissible, as_point, min_norm_subgradient,
                     slope)
from .errors import (ConfigError, DimensionMismatchError, OutsideDomainError,
                     real_array, real_number, whole_number)

RULES = ("midpoint", "node-trapezoid")

#: folds both endpoint patches plus the resolvent endpoint-shift estimate
RECOVERY_COEFF = 472.0


@dataclass(frozen=True)
class Path:
    """Strictly increasing times (N+1,) with nodes (N+1, d)."""

    times: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        t = real_array(self.times, "times")
        X = real_array(self.nodes, "nodes")
        if X.ndim == 1:
            X = X[:, None]
        if t.ndim != 1 or t.size < 2:
            raise ConfigError("need at least two time samples")
        if X.ndim != 2 or X.shape[0] != t.size:
            raise ConfigError("nodes must be an (N+1, d) array matching times")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(X))):
            raise ConfigError("times and nodes must be finite")
        if not np.all(np.diff(t) > 0):
            raise ConfigError("times must be strictly increasing")
        t = t.copy()
        X = X.copy()
        t.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "nodes", X)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def intervals(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def velocities(self) -> np.ndarray:
        return np.diff(self.nodes, axis=0) / self.dt[:, None]

    @property
    def chord_midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @staticmethod
    def straight(x0, xd, *, intervals: int = 1) -> "Path":
        """The segment from x0 to xd on [0, 1], in `intervals` equal chords."""
        x0 = np.atleast_1d(real_array(x0, "x0"))
        xd = np.atleast_1d(real_array(xd, "xd"))
        if x0.shape != xd.shape:
            raise DimensionMismatchError("endpoints must share a dimension")
        intervals = whole_number(intervals, "intervals")
        s = np.linspace(0.0, 1.0, intervals + 1)
        nodes = x0[None, :] + s[:, None] * (xd - x0)[None, :]
        nodes[0] = x0
        nodes[-1] = xd
        return Path(s, nodes)


@dataclass(frozen=True)
class ActionBreakdown:
    kinetic: float
    slope_term: float
    total: float
    rule: str
    intervals: int


def _check_rule(rule: str) -> str:
    if rule not in RULES:
        raise ConfigError(f"quadrature rule must be one of {RULES}")
    return rule


def _check_path(f: ConvexFunction, path, name: str = "path") -> None:
    if not isinstance(path, Path):
        raise ConfigError(f"{name} must be a Path, got {type(path).__name__}")
    if path.dim != f.dim:
        raise DimensionMismatchError(f"{name} dimension does not match the function")


def _midpoint_actions(f: ConvexFunction, times: np.ndarray, nodes: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Kinetic and chord-midpoint slope terms, (n,) each, of n paths with
    times (n, N+1) and nodes (n, N+1, d), from one slope_many call over
    every chord."""
    dt = np.diff(times, axis=1)
    diffs = np.diff(nodes, axis=1)
    kinetic = (np.einsum("nij,nij->ni", diffs, diffs) / dt).sum(axis=1)
    mids = 0.5 * (nodes[:, :-1] + nodes[:, 1:])
    s = f.slope_many(mids.reshape(-1, nodes.shape[2])).reshape(diffs.shape[:2])
    return kinetic, (dt * s**2).sum(axis=1)


def discrete_action(f: ConvexFunction, path: Path, rule: str = "midpoint") -> ActionBreakdown:
    """Kinetic + slope-squared action of the piecewise-linear path under f."""
    rule = _check_rule(rule)
    _check_path(f, path)
    if rule == "midpoint":
        kinetic, slope_term = (float(v[0]) for v in _midpoint_actions(
            f, path.times[None], path.nodes[None]))
    else:
        diffs = np.diff(path.nodes, axis=0)
        kinetic = float((np.einsum("ij,ij->i", diffs, diffs) / path.dt).sum())
        s = f.slope_many(path.nodes)
        slope_term = float((path.dt * 0.5 * (s[:-1] ** 2 + s[1:] ** 2)).sum())
    return ActionBreakdown(
        kinetic=kinetic,
        slope_term=slope_term,
        total=kinetic + slope_term,
        rule=rule,
        intervals=path.intervals,
    )


def _alt_actions(f: ConvexFunction, times: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """alt_action, (n,), of n paths with times (n, N+1) and nodes (n, N+1, d),
    from one subgradient_many call over every chord midpoint."""
    dt = np.diff(times, axis=1)[:, :, None]
    mids = 0.5 * (nodes[:, :-1] + nodes[:, 1:])
    G = f.subgradient_many(mids.reshape(-1, nodes.shape[2])).reshape(mids.shape)
    return (dt * (np.diff(nodes, axis=1) / dt - G) ** 2).sum(axis=(1, 2))


def alt_action(f: ConvexFunction, path: Path) -> float:
    """int |gamma' - grad f(gamma)|^2 with the gradient at chord midpoints.

    Equals discrete_action(f, path).total - 2 f(x_N) + 2 f(x_0) up to
    quadrature error (exactly, for quadratic f under the midpoint rule).
    """
    _check_path(f, path)
    return float(_alt_actions(f, path.times[None], path.nodes[None])[0])


def _upper_gradient(f: ConvexFunction, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and their quadrature bounds, (n,) each, of n paths with nodes
    (n, N+1, d), from one slope_many call over nodes, chord midpoints and
    quarter points; a residual is nan where an endpoint value is infinite.
    The bound is the per-chord trapezoid-minus-midpoint gap plus twice the
    change under one refinement (smooth wiggle).  Where the slope is convex
    along a chord (norms of affine maps, distances to convex sets)
    Hermite-Hadamard pins the midpoint rule's underestimate by that gap,
    which catches kinks hiding between sample points, e.g. a region boundary
    crossing the tail of one segment."""
    n, k, d = nodes.shape
    refined = np.empty((n, 2 * k - 1, d))  # every chord midpoint inserted
    refined[:, 0::2] = nodes
    refined[:, 1::2] = 0.5 * (nodes[:, :-1] + nodes[:, 1:])
    quarters = 0.5 * (refined[:, :-1] + refined[:, 1:])
    s = f.slope_many(np.concatenate([refined, quarters], axis=1).reshape(-1, d))
    s = s.reshape(n, -1)
    s_nodes, s_mid, s_quarter = s[:, 0:2 * k - 1:2], s[:, 1:2 * k - 1:2], s[:, 2 * k - 1:]
    seg = np.linalg.norm(np.diff(nodes, axis=1), axis=2)
    half = np.linalg.norm(np.diff(refined, axis=1), axis=2)
    ends = f.value_many(np.concatenate([nodes[:, 0], nodes[:, -1]]))
    fa, fb = ends[:n], ends[n:]
    # rows with an infinite slope or endpoint value are masked at the end
    with np.errstate(invalid="ignore"):
        # 0 * inf := 0 on stationary chords
        coarse = np.where(seg > 0.0, s_mid * seg, 0.0).sum(axis=1)
        fine = np.where(half > 0.0, s_quarter * half, 0.0).sum(axis=1)
        gap = np.maximum(0.5 * (s_nodes[:, :-1] + s_nodes[:, 1:]) - s_mid, 0.0)
        bound = ((gap * seg).sum(axis=1) + 2.0 * np.abs(fine - coarse)
                 + 1e-9 * (1.0 + np.abs(coarse)))
        residual = coarse - np.abs(fb - fa)
    finite = np.isfinite(np.column_stack([s_nodes, s_mid, coarse, fine])).all(axis=1)
    return (np.where(np.isfinite(fa) & np.isfinite(fb), residual, np.nan),
            np.where(finite, bound, np.inf))


def upper_gradient_residual(f: ConvexFunction, path: Path) -> float:
    """int |grad f|(gamma) |gamma'| (midpoint rule) minus |f(x_N) - f(x_0)|."""
    _check_path(f, path)
    residual = float(_upper_gradient(f, path.nodes[None])[0][0])
    if math.isnan(residual):
        raise OutsideDomainError("endpoint values must be finite")
    return residual


def upper_gradient_quadrature_bound(f: ConvexFunction, path: Path) -> float:
    """Reported quadrature-error bound for upper_gradient_residual (see
    `_upper_gradient`); +inf where a node or chord-midpoint slope is."""
    _check_path(f, path)
    return float(_upper_gradient(f, path.nodes[None])[1][0])


def dubois_reymond_residual(f: ConvexFunction, path: Path) -> float:
    """max_i |e_i - mean(e)| for e_i = |v_i|^2 - slope^2 at chord midpoints.

    The conserved quantity of a stationary path; small values on a converged
    minimizer.  Raises when a midpoint slope is infinite.
    """
    _check_path(f, path)
    v = path.velocities
    s = f.slope_many(path.chord_midpoints)
    if not np.all(np.isfinite(s)):
        raise OutsideDomainError("infinite slope along the path")
    e = np.einsum("ij,ij->i", v, v) - s**2
    return float(np.abs(e - e.mean()).max())


def _interpolation_nodes(f: ConvexFunction, taus: np.ndarray, X0: np.ndarray,
                         XD: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (n, M+1, d) of n interpolation paths, tau taus[i] from X0[i] to
    XD[i], and each node's resolvent residual (n, M+1), from one prox_many
    call.  Each line ends exactly at xd + tau g(xd), so the last node is
    that point's resolvent, as the first is x0 + tau g(x0)'s."""
    n, d = X0.shape
    G = f.subgradient_many(np.concatenate([X0, XD]))
    P0 = X0 + taus[:, None] * G[:n]
    PD = XD + taus[:, None] * G[n:]
    s = np.linspace(0.0, 1.0, M + 1)[None, :, None]
    lines = P0[:, None, :] + s * (PD - P0)[:, None, :]
    lines[:, -1] = PD
    Y, res = f.prox_many(np.repeat(taus, M + 1), lines.reshape(-1, d))
    return Y.reshape(n, M + 1, d), res.reshape(n, M + 1)


def interpolation_path(f: ConvexFunction, tau: float, delta: float, x0, xd,
                       M: int) -> Path:
    """Resolvent image of the tilted segment joining the endpoints.

    gamma(t) = J_tau(l(t)) with l affine from x0 + tau*g(x0) to xd + tau*g(xd),
    sampled at M+1 uniform times on [0, delta].  Endpoints reproduce x0 and xd
    up to the resolvent solver residual.
    """
    tau = f.require_admissible(tau, envelope_lipschitz=True)
    delta = real_number(delta, "delta", positive=True)
    M = whole_number(M, "M")
    x0 = as_point(x0, f.dim, "x0")
    xd = as_point(xd, f.dim, "xd")
    nodes, _ = _interpolation_nodes(f, np.array([tau]), x0[None], xd[None], M)
    return Path(np.linspace(0.0, delta, M + 1), nodes[0])


def interpolation_bound(f: ConvexFunction, tau: float, delta: float, x0, xd) -> float:
    """Upper bound on the action between x0 and xd over horizon delta:

    2 delta min_i slope^2(x_i) + (40/delta + 12 delta/tau^2) |xd - x0|^2
    + (12 delta + 40 tau^2/delta) |g(xd) - g(x0)|^2,

    valid when (1 + tau*lambda)^-1 <= 2.
    """
    tau = f.require_admissible(tau, envelope_lipschitz=True)
    delta = real_number(delta, "delta", positive=True)
    x0 = as_point(x0, f.dim, "x0")
    xd = as_point(xd, f.dim, "xd")
    s0 = slope(f, x0)
    sd = slope(f, xd)
    g0 = min_norm_subgradient(f, x0)
    gd = min_norm_subgradient(f, xd)
    dx2 = float(np.sum((xd - x0) ** 2))
    dg2 = float(np.sum((gd - g0) ** 2))
    return (2.0 * delta * min(s0, sd) ** 2
            + (40.0 / delta + 12.0 * delta / tau**2) * dx2
            + (12.0 * delta + 40.0 * tau**2 / delta) * dg2)


def coarsened_interpolation_bound(f: ConvexFunction, tau: float, x0, xd) -> float:
    """Matched-horizon (delta = tau) coarsening of the interpolation bound:

    52/tau |xd - x0|^2 + 210 tau max_i slope^2(x_i).
    """
    tau = f.require_admissible(tau, envelope_lipschitz=True)
    x0 = as_point(x0, f.dim, "x0")
    xd = as_point(xd, f.dim, "xd")
    s0 = slope(f, x0)
    sd = slope(f, xd)
    dx2 = float(np.sum((xd - x0) ** 2))
    return 52.0 / tau * dx2 + 210.0 * tau * max(s0, sd) ** 2


_JUNCTION_TOL = 1e-8


def recovery_path(f_h: ConvexFunction, tau: float, gamma: Path, xh0, xh1,
                  M: int | None = None) -> Path:
    """Patched resolvent pushforward of gamma, rescaled back to [0, 1].

    Core: node-wise J_tau of gamma (given on [0, 1]).  Two interpolation
    patches of horizon tau join xh0 to the core start and the core end to xh1.
    The concatenation lives on [-tau, 1+tau] and is affinely rescaled to
    [0, 1]; endpoints are welded exactly to xh0 and xh1 after a 1e-8
    junction-continuity audit.  M overrides the patch sampling density
    (default max(16, ceil(tau * N)) with N the core interval count).
    """
    tau = f_h.require_admissible(tau, envelope_lipschitz=True)
    _check_path(f_h, gamma, "gamma")
    if abs(gamma.times[0]) > 1e-9 or abs(gamma.times[-1] - 1.0) > 1e-9:
        raise ConfigError("gamma must be parametrized on [0, 1]")
    xh0 = as_point(xh0, f_h.dim, "xh0")
    xh1 = as_point(xh1, f_h.dim, "xh1")

    core_nodes, _ = f_h.prox_many(tau, gamma.nodes)
    m_patch = (max(16, math.ceil(tau * gamma.intervals)) if M is None
               else whole_number(M, "M"))

    (patch_a, patch_b), _ = _interpolation_nodes(
        f_h, np.array([tau, tau]), np.array([xh0, core_nodes[-1]]),
        np.array([core_nodes[0], xh1]), m_patch)
    for gap, what in (
        (np.linalg.norm(patch_a[-1] - core_nodes[0]), "entry"),
        (np.linalg.norm(patch_b[0] - core_nodes[-1]), "exit"),
        (np.linalg.norm(patch_a[0] - xh0), "start"),
        (np.linalg.norm(patch_b[-1] - xh1), "end"),
    ):
        if gap > _JUNCTION_TOL:
            raise ConfigError(f"recovery {what} junction mismatch {gap:.3e}")

    patch_times = np.linspace(0.0, tau, m_patch + 1)
    times = np.concatenate([
        patch_times - tau,            # [-tau, 0]
        gamma.times[1:],              # (0, 1]
        patch_times[1:] + 1.0,        # (1, 1+tau]
    ])
    nodes = np.concatenate([
        patch_a[:-1],
        core_nodes,
        patch_b[1:],
    ])
    nodes[0] = xh0
    nodes[-1] = xh1
    times = (times + tau) / (1.0 + 2.0 * tau)
    return Path(times, nodes)


def recovery_action_bound(action_limit: float, tau: float, lam: float, S: float) -> float:
    """(1 + tau*lambda)^-2 (action + 472 tau S^2), the recovery-curve estimate;
    tau must be admissible for lambda."""
    action_limit, tau, lam, S = (real_number(v, name) for v, name in (
        (action_limit, "action_limit"), (tau, "tau"), (lam, "lam"), (S, "S")))
    _check_admissible(tau, lam)
    return (action_limit + RECOVERY_COEFF * tau * S**2) / (1.0 + tau * lam) ** 2


def recovery_tolerance(action_limit: float, tau: float, lam: float, S: float) -> float:
    """Published slack for the recovery estimate.

    The returned curve is rescaled from [-tau, 1+tau] to [0, 1], which scales
    its kinetic term by exactly (1 + 2 tau); the 2*tau*bound term accounts for
    that, the rest pads the quadrature.
    """
    bound = recovery_action_bound(action_limit, tau, lam, S)
    return 2.0 * real_number(tau, "tau") * bound + 1e-3 * (1.0 + abs(bound))
