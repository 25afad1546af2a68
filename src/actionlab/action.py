"""Discrete paths and the action functional int |gamma'|^2 + |grad f|^2(gamma).

Paths are piecewise linear: the kinetic term sum |dx|^2/dt is exact for the
interpolant, the slope term is a quadrature (chord-midpoint by default,
node-trapezoid as the alternative).  The module also builds the two explicit
curves the estimates are proved with: the resolvent image of a tilted segment
(`interpolation_path`) and the patched recovery curve (`recovery_path`).
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

    def refined(self) -> "Path":
        """Insert every chord midpoint; represents the same piecewise-linear curve."""
        t = np.empty(2 * self.intervals + 1)
        X = np.empty((t.size, self.dim))
        t[0::2] = self.times
        t[1::2] = 0.5 * (self.times[:-1] + self.times[1:])
        X[0::2] = self.nodes
        X[1::2] = self.chord_midpoints
        return Path(t, X)

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


def _kinetic(path: Path) -> float:
    diffs = np.diff(path.nodes, axis=0)
    return float((np.einsum("ij,ij->i", diffs, diffs) / path.dt).sum())


def discrete_action(f: ConvexFunction, path: Path, rule: str = "midpoint") -> ActionBreakdown:
    """Kinetic + slope-squared action of the piecewise-linear path under f."""
    rule = _check_rule(rule)
    _check_path(f, path)
    kinetic = _kinetic(path)
    if rule == "midpoint":
        s = f.slope_many(path.chord_midpoints)
        slope_term = float((path.dt * s**2).sum())
    else:
        s = f.slope_many(path.nodes)
        slope_term = float((path.dt * 0.5 * (s[:-1] ** 2 + s[1:] ** 2)).sum())
    return ActionBreakdown(
        kinetic=kinetic,
        slope_term=slope_term,
        total=kinetic + slope_term,
        rule=rule,
        intervals=path.intervals,
    )


def alt_action(f: ConvexFunction, path: Path) -> float:
    """int |gamma' - grad f(gamma)|^2 with the gradient at chord midpoints.

    Equals discrete_action(f, path).total - 2 f(x_N) + 2 f(x_0) up to
    quadrature error (exactly, for quadratic f under the midpoint rule).
    """
    _check_path(f, path)
    G = f.subgradient_many(path.chord_midpoints)
    diff = path.velocities - G
    return float((path.dt * np.einsum("ij,ij->i", diff, diff)).sum())


def _upper_gradient_integral(f: ConvexFunction, path: Path) -> float:
    seg = np.linalg.norm(np.diff(path.nodes, axis=0), axis=1)
    s = f.slope_many(path.chord_midpoints)
    terms = np.where(seg > 0.0, s * seg, 0.0)  # 0 * inf := 0 on stationary chords
    return float(terms.sum())


def upper_gradient_residual(f: ConvexFunction, path: Path) -> float:
    """int |grad f|(gamma) |gamma'| (midpoint rule) minus |f(x_N) - f(x_0)|."""
    _check_path(f, path)
    fa = f.value(path.nodes[0])
    fb = f.value(path.nodes[-1])
    if not (np.isfinite(fa) and np.isfinite(fb)):
        raise OutsideDomainError("endpoint values must be finite")
    return _upper_gradient_integral(f, path) - abs(fb - fa)


def upper_gradient_quadrature_bound(f: ConvexFunction, path: Path) -> float:
    """Reported quadrature-error bound for upper_gradient_residual.

    Two ingredients: a Richardson comparison against the once-refined chord
    subdivision (smooth wiggle, factor-2 safety), and the per-segment
    trapezoid-minus-midpoint gap.  When the slope is convex along a chord
    (norms of affine maps, distances to convex sets) Hermite-Hadamard pins
    the midpoint rule's underestimate by that gap, which catches integrand
    kinks hiding between sample points, e.g. a region boundary crossing the
    tail of one segment.
    """
    _check_path(f, path)
    coarse = _upper_gradient_integral(f, path)
    fine = _upper_gradient_integral(f, path.refined())
    s_nodes = f.slope_many(path.nodes)
    s_mid = f.slope_many(path.chord_midpoints)
    if not (np.isfinite(coarse) and np.isfinite(fine)
            and np.all(np.isfinite(s_nodes)) and np.all(np.isfinite(s_mid))):
        return np.inf
    seg = np.linalg.norm(np.diff(path.nodes, axis=0), axis=1)
    gap = np.maximum(0.5 * (s_nodes[:-1] + s_nodes[1:]) - s_mid, 0.0)
    bracket = float((gap * seg).sum())
    return bracket + 2.0 * abs(fine - coarse) + 1e-9 * (1.0 + abs(coarse))


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
    p0 = x0 + tau * min_norm_subgradient(f, x0)
    pd = xd + tau * min_norm_subgradient(f, xd)
    s = np.linspace(0.0, 1.0, M + 1)
    line = p0[None, :] + s[:, None] * (pd - p0)[None, :]
    nodes, _ = f.prox_many(tau, line)
    return Path(np.linspace(0.0, delta, M + 1), nodes)


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

    patch_a = interpolation_path(f_h, tau, tau, xh0, core_nodes[0], m_patch)
    patch_b = interpolation_path(f_h, tau, tau, core_nodes[-1], xh1, m_patch)
    for gap, what in (
        (np.linalg.norm(patch_a.nodes[-1] - core_nodes[0]), "entry"),
        (np.linalg.norm(patch_b.nodes[0] - core_nodes[-1]), "exit"),
        (np.linalg.norm(patch_a.nodes[0] - xh0), "start"),
        (np.linalg.norm(patch_b.nodes[-1] - xh1), "end"),
    ):
        if gap > _JUNCTION_TOL:
            raise ConfigError(f"recovery {what} junction mismatch {gap:.3e}")

    times = np.concatenate([
        patch_a.times - tau,          # [-tau, 0]
        gamma.times[1:],              # (0, 1]
        patch_b.times[1:] + 1.0,      # (1, 1+tau]
    ])
    nodes = np.concatenate([
        patch_a.nodes[:-1],
        core_nodes,
        patch_b.nodes[1:],
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
