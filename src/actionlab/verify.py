"""Seeded invariant sweeps with serialized counterexamples.

verify_suite(...) runs every registered check in the requested scopes with a
deterministic per-check generator. A check samples functions, taus, points,
or paths, tests one documented inequality or identity, and records each
violation together with the offending inputs (function descriptor included)
so it can be replayed. The suite never raises on a failed inequality; it
reports.

The per-function helpers (``*_failures``) are public on purpose: the
acceptance tests re-run them at larger sample counts, and a deliberately
corrupted function can be handed straight to one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .action import (Path, _alt_actions, _interpolation_nodes,
                     _midpoint_actions, _upper_gradient,
                     coarsened_interpolation_bound, discrete_action,
                     dubois_reymond_residual, interpolation_bound,
                     recovery_action_bound, recovery_path, recovery_tolerance)
from .convex import (ConvexFunction, Indicator, LogSumExp, MaxLinear,
                     Quadratic, SquaredDistance, _slope_lower_bounds, tau_cap)
from .errors import ConfigError, malformed_input, whole_number
from .experiments import (gamma_limsup_experiment, gamma_value_experiment,
                          resolvent_convergence_table,
                          slope_semicontinuity_table)
from .families import (constant_family, family_logsumexp_to_max,
                       family_penalty_to_indicator)
from .minimize import (MinimizeConfig, _minimize_paths, _Objective,
                       minimize_action)
from .minnorm import hull_projection
from .oracle import GridSpec, grid_oracle, speed_quantization_bias
from .sets import Ball, Box, Halfspace

SCOPES = ("convex", "action", "minimize", "gamma")
_INTERP_SAMPLES = 256     # chords of the constructed paths the bound checks
_NULL_LAGRANGIAN_SEGMENTS = 64


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    samples: int
    failure_count: int
    failures: tuple[dict, ...]  # capped at 5 serialized examples

    @property
    def passed(self) -> bool:
        return self.failure_count == 0


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    scopes: tuple[str, ...]
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failure_count(self) -> int:
        return sum(c.failure_count for c in self.checks)

    def to_dict(self) -> dict:
        return {**serialize.to_plain(self), "ok": self.ok,
                "failure_count": self.failure_count}

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            word = "PASS" if c.passed else "FAIL"
            extra = "" if c.passed else f", {c.failure_count} failures"
            lines.append(f"{word}  {c.name} [{c.scope}] ({c.samples} samples{extra})")
        lines.append(f"{'OK' if self.ok else 'FAILED'}: "
                     f"{self.failure_count} failures across {len(self.checks)} checks")
        return lines


def _fail(f: ConvexFunction, **data) -> dict:
    return serialize.to_plain({"function": f, **data})


# ---------------------------------------------------------------------------
# samplers

def _function_pool(rng, extra=()) -> list[ConvexFunction]:
    fns: list[ConvexFunction] = []
    for d in (1, 2, 3):
        B = rng.normal(size=(d, d))
        fns.append(Quadratic(B @ B.T / d, rng.normal(size=d), float(rng.normal())))
    B = rng.normal(size=(2, 2))
    fns.append(Quadratic(B @ B.T / 2 - 0.6 * np.eye(2), rng.normal(size=2), 0.0))
    fns.append(MaxLinear(rng.normal(size=(4, 2))))
    fns.append(MaxLinear(rng.normal(size=(3, 1))))
    fns.append(MaxLinear(rng.normal(size=(1, 2))))
    fns.append(LogSumExp(rng.normal(size=(4, 2)), 0.3))
    fns.append(LogSumExp(rng.normal(size=(3, 1)), 0.08))
    fns.append(Indicator(Ball(rng.normal(size=2) * 0.5, 1.0 + rng.random())))
    fns.append(Indicator(Box(-1.0 - rng.random(2), 1.0 + rng.random(2))))
    fns.append(Indicator(Halfspace(rng.normal(size=2), float(rng.normal()))))
    fns.append(SquaredDistance(Ball(rng.normal(size=2) * 0.5, 1.0),
                               0.5 + 2.0 * rng.random()))
    fns.append(SquaredDistance(Box(np.array([-1.0, -0.5]), np.array([1.0, 1.5])),
                               1.0 + rng.random()))
    fns.extend(extra)
    return fns


def _smooth_pool(rng) -> list[ConvexFunction]:
    return [f for f in _function_pool(rng) if isinstance(f, (Quadratic, LogSumExp))]


def _sample_taus(rng, f: ConvexFunction, n: int) -> np.ndarray:
    return np.minimum(np.exp(rng.uniform(np.log(0.05), np.log(1.5), size=n)),
                      tau_cap(f.lam))


def _sample_xs(rng, f: ConvexFunction, n: int) -> np.ndarray:
    return rng.normal(size=(n, f.dim)) * 1.5


def _sample_domain_xs(rng, f: ConvexFunction, n: int) -> np.ndarray:
    X = _sample_xs(rng, f, n)
    return f.region.project_many(X) if isinstance(f, Indicator) else X


def _random_nodes(rng, f: ConvexFunction, n: int, segments: int) -> np.ndarray:
    """Nodes (n, segments+1, d) of n piecewise-linear paths on uniform times
    over [0, 1], each a random start and walk of five steps sampled at the
    nodes and kept in the effective domain."""
    d = f.dim
    knots = np.cumsum(np.concatenate([rng.normal(size=(n, 1, d)) * 0.8,
                                      rng.normal(size=(n, 5, d)) * 0.24], axis=1), axis=1)
    # linear interpolation between the 6 knots is a fixed (segments+1, 6) matrix
    s = np.linspace(0.0, 1.0, segments + 1)
    weights = np.column_stack([np.interp(s, np.linspace(0.0, 1.0, 6), e)
                               for e in np.eye(6)])
    nodes = weights @ knots
    if isinstance(f, Indicator):
        nodes = f.region.project_many(nodes.reshape(-1, d)).reshape(nodes.shape)
    return nodes


# ---------------------------------------------------------------------------
# convex-scope helpers (public: reused by the acceptance tests)

def envelope_identity_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    """Envelope equals its defining expression at the resolvent, and no
    sampled competitor does better."""
    fails = []
    rel = 1e-6 if isinstance(f, LogSumExp) else 1e-9
    taus = _sample_taus(rng, f, trials)
    X = _sample_xs(rng, f, trials)
    steps = np.resize([0.03, 0.3, 1.0], 8)
    C = rng.normal(size=(trials, 8, f.dim)) * steps[:, None]
    Y, res = f.prox_many(taus, X)
    fy = f.value_many(Y)
    # the envelope through its gradient, against the defining expression
    G = (X - Y) / taus[:, None]
    envelope = fy + 0.5 * taus * np.einsum("ij,ij->i", G, G)
    direct = fy + np.sum((X - Y) ** 2, axis=1) / (2.0 * taus)
    allowed = rel * (1.0 + np.abs(direct)) + 10.0 * res
    err = np.abs(envelope - direct)
    slack = rel * (1.0 + np.abs(envelope)) + 10.0 * res
    C += Y[:, None, :]
    cand = (f.value_many(C.reshape(-1, f.dim)).reshape(trials, 8)
            + np.sum((C - X[:, None, :]) ** 2, axis=2) / (2.0 * taus[:, None]))
    beaten = cand < (envelope - slack)[:, None]
    for i in range(trials):
        if not (err[i] <= allowed[i]):
            fails.append(_fail(f, tau=taus[i], x=X[i], error=err[i],
                               allowed=allowed[i]))
        elif beaten[i].any():
            k = int(np.argmax(beaten[i]))
            fails.append(_fail(f, tau=taus[i], x=X[i], competitor=C[i, k],
                               competitor_value=cand[i, k],
                               envelope=envelope[i]))
    return fails


def tilted_gradient_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    """The envelope gradient at x + tau*g(x) reproduces g(x) on the domain."""
    taus = _sample_taus(rng, f, trials)
    X = _sample_domain_xs(rng, f, trials)
    G = f.subgradient_many(X)
    T = X + taus[:, None] * G
    Y, res = f.prox_many(taus, T)
    err = np.linalg.norm((T - Y) / taus[:, None] - G, axis=1)
    allowed = 1e-8 * (1.0 + np.linalg.norm(G, axis=1)) + 10.0 * res / taus
    return [_fail(f, tau=taus[i], x=X[i], g=G[i], error=err[i], allowed=allowed[i])
            for i in np.where(~(err <= allowed))[0]]


def slope_chain_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    """slope(J(x)) <= |x-J(x)|/tau <= slope(x)/(1+lambda*tau)."""
    fails = []
    taus = _sample_taus(rng, f, trials)
    X = _sample_xs(rng, f, trials)
    Y, res = f.prox_many(taus, X)
    m = np.linalg.norm(X - Y, axis=1) / taus
    s_res = f.slope_many(Y)
    s_x = f.slope_many(X)
    tol = 1e-8 * (1.0 + m) + 10.0 * res / taus
    rhs = s_x / (1.0 + f.lam * taus)
    left = s_res > m + tol
    right = m > rhs + tol
    for i in np.where(left | right)[0]:
        if left[i]:
            fails.append(_fail(f, tau=taus[i], x=X[i], kind="left",
                               slope_at_resolvent=s_res[i], ratio=m[i],
                               allowed=m[i] + tol[i]))
        if right[i]:
            fails.append(_fail(f, tau=taus[i], x=X[i], kind="right", ratio=m[i],
                               slope_at_x=s_x[i], allowed=rhs[i] + tol[i]))
    return fails


def _pair_resolvents(f: ConvexFunction, rng, trials: int):
    """Sampled (tau, x, y) triples with |x - y| >= 1e-6 and both resolvents."""
    taus = _sample_taus(rng, f, trials)
    X = _sample_xs(rng, f, trials)
    Yp = _sample_xs(rng, f, trials)
    dist = np.linalg.norm(X - Yp, axis=1)
    keep = dist >= 1e-6
    taus, X, Yp, dist = taus[keep], X[keep], Yp[keep], dist[keep]
    J, res = f.prox_many(np.concatenate([taus, taus]), np.vstack([X, Yp]))
    k = X.shape[0]
    return taus, X, Yp, dist, J[:k], J[k:], res[:k] + res[k:]


def resolvent_lipschitz_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    taus, X, Yp, dist, Jx, Jy, res = _pair_resolvents(f, rng, trials)
    ratio = np.linalg.norm(Jx - Jy, axis=1) / dist
    allowed = 1.0 / (1.0 + f.lam * taus) + 1e-8 + res / dist
    return [_fail(f, tau=taus[i], x=X[i], y=Yp[i], ratio=ratio[i], allowed=allowed[i])
            for i in np.where(~(ratio <= allowed))[0]]


def envelope_gradient_lipschitz_failures(f: ConvexFunction, rng,
                                         trials: int) -> list[dict]:
    # _sample_taus keeps 1 + tau*lam >= 0.55
    taus, X, Yp, dist, Jx, Jy, res = _pair_resolvents(f, rng, trials)
    t = taus[:, None]
    ratio = np.linalg.norm((X - Jx) / t - (Yp - Jy) / t, axis=1) / dist
    allowed = 3.0 / taus + 1e-8 + res / (taus * dist)
    return [_fail(f, tau=taus[i], x=X[i], y=Yp[i], ratio=ratio[i], allowed=allowed[i])
            for i in np.where(~(ratio <= allowed))[0]]


def moreau_decomposition_failures(f: MaxLinear, rng, trials: int) -> list[dict]:
    """x = J_tau(x) + tau * proj_hull(x / tau) for max-linear functions, from
    one resolvent batch and one oracle batch."""
    taus = _sample_taus(rng, f, trials)
    X = _sample_xs(rng, f, trials)
    Y, _ = f.prox_many(taus, X)
    t = taus[:, None]
    err = np.linalg.norm(Y + t * hull_projection(f.vectors, X / t) - X, axis=1)
    allowed = 1e-9 * (1.0 + np.linalg.norm(X, axis=1))
    return [_fail(f, tau=taus[i], x=X[i], error=err[i], allowed=allowed[i])
            for i in np.where(~(err <= allowed))[0]]


def slope_tau_monotonicity_failures(f: ConvexFunction, rng,
                                    trials: int) -> list[dict]:
    """(1 + lambda*tau) |x - J_tau(x)|/tau is nondecreasing as tau shrinks.

    The correction factor is forced by the resolvent's Lipschitz constant;
    quadratics whose curvature sits exactly at lambda make it an equality.
    For lambda >= 0 the corrected statement implies the plain one, so the
    raw quotient is monotone there as well.  Each trial halves tau0 six
    times; all 6*trials resolvents are one batch.
    """
    fails = []
    tau0 = _sample_taus(rng, f, trials)
    X = _sample_xs(rng, f, trials)
    T = tau0[:, None] * 0.5 ** np.arange(6)
    Xr = np.repeat(X, 6, axis=0)
    Y, res = f.prox_many(T.ravel(), Xr)
    dist = np.linalg.norm(Xr - Y, axis=1).reshape(trials, 6)
    M = (1.0 + f.lam * T) * dist / T
    R = res.reshape(trials, 6)
    prev, cur = M[:, :-1], M[:, 1:]
    tol = 1e-8 * (1.0 + prev) + 10.0 * (R[:, :-1] + R[:, 1:]) / T[:, 1:]
    drop = cur < prev - tol
    for i in np.where(drop.any(axis=1))[0]:
        k = int(np.argmax(drop[i]))  # the first non-monotone level
        fails.append(_fail(f, tau=T[i, k + 1], x=X[i], ratio=cur[i, k],
                           previous=prev[i, k]))
    return fails


def sampled_lower_bound_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    """The sampled slope lower bound, from four samples per point at radii
    0.05, 0.3, 1 and 2, stays below the slope.  The block is drawn at once
    and costs one value_many and one slope_many call."""
    X = _sample_domain_xs(rng, f, trials)
    S = X[:, None] + (rng.normal(size=(trials, 4, f.dim))
                      * np.array([0.05, 0.3, 1.0, 2.0])[:, None])
    bounds = _slope_lower_bounds(f, X, S)
    fails = []
    for x, bound, s in zip(X, bounds, f.slope_many(X)):
        if not (bound <= s + 1e-9 * (1.0 + min(s, 1e12))):
            fails.append(_fail(f, x=x, bound=bound, slope=s))
    return fails


# ---------------------------------------------------------------------------
# action-scope helpers

def _interp_instances(rng, f: ConvexFunction, trials: int):
    """taus, deltas, X0, XD of `trials` interpolation instances."""
    deltas = np.exp(rng.uniform(np.log(0.2), np.log(1.5), size=trials))
    taus = _sample_taus(rng, f, trials)
    X0 = _sample_domain_xs(rng, f, trials)
    return taus, deltas, X0, _sample_domain_xs(rng, f, trials)


def _coarse_and_fine_actions(f: ConvexFunction, taus, deltas, X0, XD):
    """Actions of the interpolation paths at _INTERP_SAMPLES and twice as many
    chords, from one resolvent batch: the coarse paths are the even nodes."""
    M = 2 * _INTERP_SAMPLES
    fine, _ = _interpolation_nodes(f, taus, X0, XD, M)
    times = np.linspace(0.0, deltas, M + 1, axis=1)
    act = sum(_midpoint_actions(f, times[:, ::2], fine[:, ::2]))
    return act, sum(_midpoint_actions(f, times, fine))


def interpolation_bound_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    """Measured action of the constructed path stays under the stated bound,
    up to a per-instance refinement-difference quadrature allowance."""
    fails = []
    taus, deltas, X0, XD = _interp_instances(rng, f, trials)
    act, act_fine = _coarse_and_fine_actions(f, taus, deltas, X0, XD)
    for i in range(trials):
        bound = interpolation_bound(f, taus[i], deltas[i], X0[i], XD[i])
        quad = 2.0 * abs(act_fine[i] - act[i]) + 1e-9 * (1.0 + abs(bound))
        if not (act[i] <= bound + quad):
            fails.append(_fail(f, tau=taus[i], delta=deltas[i], x0=X0[i], xd=XD[i],
                               action=act[i], bound=bound, quadrature=quad))
    return fails


def coarsened_bound_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    """Same audit at the matched horizon delta = tau, plus dominance of the
    coarsened bound over the sharp one."""
    fails = []
    taus, _, X0, XD = _interp_instances(rng, f, trials)
    act, act_fine = _coarse_and_fine_actions(f, taus, taus, X0, XD)
    for i in range(trials):
        tau, x0, xd = taus[i], X0[i], XD[i]
        coarse = coarsened_interpolation_bound(f, tau, x0, xd)
        sharp = interpolation_bound(f, tau, tau, x0, xd)
        quad = 2.0 * abs(act_fine[i] - act[i]) + 1e-9 * (1.0 + abs(coarse))
        if not (act[i] <= coarse + quad):
            fails.append(_fail(f, tau=tau, x0=x0, xd=xd, action=act[i],
                               bound=coarse, quadrature=quad))
        if coarse < sharp - 1e-9 * (1.0 + abs(sharp)):
            fails.append(_fail(f, tau=tau, x0=x0, xd=xd, coarse=coarse,
                               sharp=sharp, kind="dominance"))
    return fails


def null_lagrangian_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    """alt action differs from the action by exactly the endpoint term,
    up to O(1/N) quadrature on smooth kinds; the trials' actions, alt
    actions and endpoint values are one batch each."""
    segments = _NULL_LAGRANGIAN_SEGMENTS
    nodes = _random_nodes(rng, f, trials, segments)
    times = np.broadcast_to(np.linspace(0.0, 1.0, segments + 1), nodes.shape[:2])
    total = sum(_midpoint_actions(f, times, nodes))
    alt = _alt_actions(f, times, nodes)
    f0, f1 = f.value_many(np.concatenate([nodes[:, 0], nodes[:, -1]])).reshape(2, -1)
    err = np.abs(alt - (total - 2.0 * f1 + 2.0 * f0))
    allowed = 10.0 * (1.0 + np.abs(total) + np.abs(f0) + np.abs(f1)) / segments
    return [_fail(f, segments=segments, error=err[i], allowed=allowed[i])
            for i in np.where(~(err <= allowed))[0]]


def upper_gradient_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    nodes = _random_nodes(rng, f, trials, 64)
    residual, tol = _upper_gradient(f, nodes)
    return [_fail(f, residual=residual[i], allowed=-tol[i],
                  start=nodes[i, 0], end=nodes[i, -1])
            for i in np.where(~(residual >= -tol))[0]]


def interpolation_endpoint_failures(f: ConvexFunction, rng,
                                    trials: int) -> list[dict]:
    """The interpolation path's end nodes reproduce x0 and xd up to their
    resolvent residuals, read from the same batch."""
    taus, deltas, X0, XD = _interp_instances(rng, f, trials)
    nodes, res = _interpolation_nodes(f, taus, X0, XD, 32)
    targets, ends = np.stack([X0, XD], axis=1), nodes[:, [0, -1]]
    err = np.linalg.norm(ends - targets, axis=2)
    allowed = np.maximum(10.0 * res[:, [0, -1]],
                         1e-9 * (1.0 + np.linalg.norm(targets, axis=2)))
    return [_fail(f, tau=taus[i], delta=deltas[i], target=targets[i, j],
                  endpoint=ends[i, j], error=err[i, j], allowed=allowed[i, j])
            for i, j in zip(*np.where(~(err <= allowed)))]


def recovery_bound_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    """Action of the patched resolvent pushforward obeys the recovery bound
    when the same function plays member and limit.  The endpoint slopes and
    the limit actions are one batch each; every trial audits the public
    recovery_path and discrete_action."""
    fails = []
    taus = np.minimum(_sample_taus(rng, f, trials), 0.35)
    nodes = _random_nodes(rng, f, trials, 48)
    times = np.linspace(0.0, 1.0, 49)
    ends = np.concatenate([nodes[:, 0], nodes[:, -1]])
    S = f.slope_many(ends).reshape(2, -1).max(axis=0)
    A = sum(_midpoint_actions(f, np.broadcast_to(times, nodes.shape[:2]), nodes))
    for i in np.where(np.isfinite(S))[0]:
        rp = recovery_path(f, taus[i], Path(times, nodes[i]), nodes[i, 0], nodes[i, -1])
        act = discrete_action(f, rp).total
        bound = recovery_action_bound(A[i], taus[i], f.lam, S[i])
        tol = recovery_tolerance(A[i], taus[i], f.lam, S[i])
        if not (act <= bound + tol):
            fails.append(_fail(f, tau=taus[i], S=S[i], action=act, limit_action=A[i],
                               bound=bound, tolerance=tol))
    return fails


# ---------------------------------------------------------------------------
# minimize-scope helpers

def _zero_quadratic(d: int) -> Quadratic:
    return Quadratic(np.zeros((d, d)), np.zeros(d), 0.0)


def kinetic_gradient_failures(rng, trials: int) -> list[dict]:
    """Analytic kinetic gradient against central differences, one evaluation a
    trial; a trial of dimension d and n intervals reads the first d columns
    and n - 1 rows of its blocks."""
    fails = []
    dims, sizes = rng.integers(1, 3, size=trials), rng.integers(6, 14, size=trials)
    X0, XD = rng.normal(size=(2, trials, 2))
    nodes = rng.normal(size=(trials, 12, 2))
    rows = rng.integers(0, sizes[:, None] - 1, size=(trials, 3))
    cols = rng.integers(0, dims[:, None], size=(trials, 3))
    h = 1e-6
    for d, n, x0, xd, Z, I, J in zip(dims.tolist(), sizes.tolist(), X0, XD, nodes,
                                     rows.tolist(), cols.tolist()):
        entries = list(zip(I, J))
        Z = Z[:n - 1, :d]
        shifted = np.repeat(Z[None], 6, axis=0)
        for e, (i, j) in enumerate(entries):
            shifted[[2 * e, 2 * e + 1], i, j] += (h, -h)
        obj = _Objective(_zero_quadratic(d), 0.3, np.tile(x0[:d], (6, 1)),
                         np.tile(xd[:d], (6, 1)), 1.0 / n)
        G = obj.paths([0]).kinetic_gradient(Z[None])[0]
        values = obj.evaluate(shifted)[0]
        for e, (i, j) in enumerate(entries):
            fd = float(values[2 * e] - values[2 * e + 1]) / (2.0 * h)
            err = abs(G[i, j] - fd)
            if not (err <= 1e-6 * (1.0 + abs(fd))):
                fails.append(serialize.to_plain(
                    {"entry": [i, j], "analytic": G[i, j], "fd": fd,
                     "error": err}))
    return fails


def objective_gradient_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    """Full smoothed-objective directional derivative against central
    differences (relative 1e-6), Z and Z -+ hD evaluated as three paths."""
    fails = []
    sizes = rng.integers(8, 16, size=trials)
    X0 = _sample_domain_xs(rng, f, trials)
    XD = _sample_domain_xs(rng, f, trials)
    taus = np.maximum(0.1, _sample_taus(rng, f, trials))
    # each trial uses the first n - 1 rows of its noise and direction blocks
    noise = rng.normal(size=(trials, 14, f.dim)) * 0.1
    directions = rng.normal(size=(trials, 14, f.dim))
    for n, x0, xd, tau, z, D in zip(sizes.tolist(), X0, XD, taus, noise, directions):
        s = np.linspace(0.0, 1.0, n + 1)[1:-1]
        Z = x0[None, :] + s[:, None] * (xd - x0)[None, :] + z[:n - 1]
        D = D[:n - 1] / np.linalg.norm(D[:n - 1])
        h = 1e-5 * (1.0 + float(np.abs(Z).max()))
        obj = _Objective(f, tau, np.tile(x0, (3, 1)), np.tile(xd, (3, 1)), 1.0 / n)
        values, (mids, Y) = obj.evaluate(np.stack([Z, Z + h * D, Z - h * D]))
        G = obj.paths([0]).newton_system(Z[None], (mids[:1], Y[:1]))[0][0]
        fd = float(values[1] - values[2]) / (2.0 * h)
        dd = float((G * D).sum())
        if not (abs(dd - fd) <= 1e-6 * (1.0 + abs(fd))):
            fails.append(_fail(f, n=n, tau=tau, analytic=dd, fd=fd))
    return fails


def _endpoint_pairs(rng, f: ConvexFunction, trials: int) -> np.ndarray:
    """(trials, 2, d): each trial's x0 and xd."""
    return _sample_domain_xs(rng, f, 2 * trials).reshape(trials, 2, f.dim)


def descent_monotonicity_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    """Accepted objective values never increase within a continuation stage;
    the trials are solved in one lockstep run."""
    ends = _endpoint_pairs(rng, f, trials)
    traces: list = [[] for _ in range(trials)]
    cfg = MinimizeConfig(N=24, max_iters=60, grad_tol=1e-6)
    _minimize_paths(f, ends[:, 0], ends[:, 1], 1.0, cfg, stage_traces=traces)
    fails = []
    for path_traces in traces:
        for stage, tr in enumerate(path_traces):
            for a, b in zip(tr, tr[1:]):
                if not (b <= a + 1e-12 * (1.0 + abs(a))):
                    fails.append(_fail(f, stage=stage, before=a, after=b))
    return fails


def endpoint_pinning_failures(f: ConvexFunction, rng, trials: int) -> list[dict]:
    ends = _endpoint_pairs(rng, f, trials)
    results = _minimize_paths(f, ends[:, 0], ends[:, 1], 1.0,
                              MinimizeConfig(N=16, max_iters=20))
    fails = []
    for (x0, xd), res in zip(ends, results):
        if not (np.array_equal(res.path.nodes[0], x0)
                and np.array_equal(res.path.nodes[-1], xd)):
            fails.append(_fail(f, x0=x0, xd=xd,
                               got0=res.path.nodes[0], got1=res.path.nodes[-1]))
    return fails


def dubois_reymond_minimizer_failures() -> list[dict]:
    """Converged smooth minimizers nearly conserve |v|^2 - slope^2."""
    f = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    res = minimize_action(f, [1.0], [2.0], 1.0, MinimizeConfig(N=256))
    residual = dubois_reymond_residual(f, res.path)
    # the exact minimizer cosh t + b sinh t conserves |v|^2 - slope^2 = b^2 - 1
    b = (2.0 - math.cosh(1.0)) / math.sinh(1.0)
    allowed = 0.05 * (1.0 + abs(b * b - 1.0))
    if residual <= allowed:
        return []
    return [_fail(f, residual=residual, allowed=allowed,
                  converged=res.converged)]


def oracle_sandwich_failures() -> list[dict]:
    """Minimizer value against the layered-grid upper bound."""
    fails = []
    f = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    res = minimize_action(f, [1.0], [2.0], 1.0, MinimizeConfig(N=128))
    spec_fine = GridSpec([0.5], [2.5], (64,))
    coarse = grid_oracle(f, [1.0], [2.0], 1.0,
                         GridSpec([0.5], [2.5], (32,)), 16)
    fine = grid_oracle(f, [1.0], [2.0], 1.0, spec_fine, 30)
    bias = speed_quantization_bias(spec_fine, 30, 1.0) \
        + 2.0 * abs(fine - coarse)
    if not (abs(res.value_true - fine) <= 0.05 * max(1.0, fine) + bias):
        fails.append(_fail(f, value=res.value_true, oracle=fine, bias=bias))
    return fails


# ---------------------------------------------------------------------------
# gamma-scope helpers; each check builds only the built-in families it uses

def _lse_family():
    return family_logsumexp_to_max(
        np.array([[1.0], [-1.0]]), (0.5, 0.2, 0.08, 0.03), [-1.0], [1.0])


def _penalty_family():
    return family_penalty_to_indicator(
        Ball(np.zeros(2), 1.5), (1.0, 4.0, 16.0, 64.0),
        [-1.0, 0.0], [1.0, 0.0])


def resolvent_table_flags() -> list[str]:
    lse, pen = _lse_family(), _penalty_family()
    flags = list(resolvent_convergence_table(lse, 0.5, [[-1.2], [0.4], [1.8]]).flags)
    flags += resolvent_convergence_table(
        pen, 0.5, [[2.0, 0.0], [0.0, 2.5], [0.5, 0.5]]).flags
    return flags


def value_gap_flags() -> list[str]:
    lse = _lse_family()
    cfg = MinimizeConfig(N=48, max_iters=200, grad_tol=1e-4)
    report = gamma_value_experiment(lse, 1.0, cfg)
    return [fl for fl in report.flags if "eventually decreasing" in fl]


def limsup_flags() -> list[str]:
    pen = _penalty_family()
    quad = constant_family(Quadratic(np.array([[1.0]]), np.zeros(1), 0.0),
                           [0.5], [1.5], size=3)
    flags = []
    gamma_q = Path.straight([0.5], [1.5], intervals=40)
    flags += gamma_limsup_experiment(quad, gamma_q, (0.2, 0.05)).flags
    gamma_p = Path.straight([-1.0, 0.0], [1.0, 0.0], intervals=40)
    flags += gamma_limsup_experiment(pen, gamma_p, (0.2, 0.05)).flags
    return list(flags)


def slope_lsc_flags() -> list[str]:
    lse, pen = _lse_family(), _penalty_family()
    flags = list(slope_semicontinuity_table(
        lse, [[-1.0], [0.0], [0.6], [1.7]]).flags)
    flags += slope_semicontinuity_table(
        pen, [[0.0, 0.0], [1.0, 0.5], [-0.7, 0.7]]).flags
    return flags


def report_determinism_failures() -> list[dict]:
    lse = _lse_family()
    docs = []
    for _ in range(2):
        rep = resolvent_convergence_table(lse, 0.4, [[-1.1], [0.9]])
        docs.append(serialize.dumps(rep.to_dict()))
    if docs[0] != docs[1]:
        return [{"reason": "resolvent report not byte-identical across reruns"}]
    return []


# ---------------------------------------------------------------------------
# registry and runner

def _per_function(helper, pool_fn, default: int):
    def runner(rng, samples, extra):
        n = default if samples is None else samples
        pool = pool_fn(rng, extra) if pool_fn is _function_pool else pool_fn(rng)
        return n * len(pool), [fail for f in pool for fail in helper(f, rng, n)]
    return runner


def _interp_pool(rng) -> list[ConvexFunction]:
    return [f for f in _function_pool(rng)
            if not isinstance(f, Indicator)] + [
        Indicator(Ball(np.zeros(2), 1.5))]


def _minimize_pool(rng) -> list[ConvexFunction]:
    B = rng.normal(size=(2, 2))
    return [
        Quadratic(B @ B.T / 2, rng.normal(size=2), 0.0),
        LogSumExp(rng.normal(size=(3, 2)), 0.25),
        MaxLinear(rng.normal(size=(3, 1))),
        SquaredDistance(Ball(np.zeros(2), 1.0), 2.0),
    ]


def _maxlinear_pool(rng) -> list[ConvexFunction]:
    return [f for f in _function_pool(rng) if isinstance(f, MaxLinear)]


def _flags_check(helper):
    def runner(rng, samples, extra):
        flags = helper()
        return 1, [{"flag": fl} for fl in flags]
    return runner


def _plain_check(helper):
    def runner(rng, samples, extra):
        return 1, helper()
    return runner


_REGISTRY: tuple = (
    ("envelope_identity", "convex",
     _per_function(envelope_identity_failures, _function_pool, 25)),
    ("tilted_gradient_identity", "convex",
     _per_function(tilted_gradient_failures, _function_pool, 25)),
    ("slope_chain", "convex",
     _per_function(slope_chain_failures, _function_pool, 30)),
    ("resolvent_lipschitz", "convex",
     _per_function(resolvent_lipschitz_failures, _function_pool, 25)),
    ("envelope_gradient_lipschitz", "convex",
     _per_function(envelope_gradient_lipschitz_failures, _function_pool, 25)),
    ("moreau_decomposition", "convex",
     _per_function(moreau_decomposition_failures, _maxlinear_pool, 30)),
    ("slope_tau_monotonicity", "convex",
     _per_function(slope_tau_monotonicity_failures, _function_pool, 8)),
    ("sampled_lower_bound", "convex",
     _per_function(sampled_lower_bound_failures, _function_pool, 20)),
    ("interpolation_bound", "action",
     _per_function(interpolation_bound_failures, _interp_pool, 2)),
    ("coarsened_bound", "action",
     _per_function(coarsened_bound_failures, _interp_pool, 2)),
    ("null_lagrangian", "action",
     _per_function(null_lagrangian_failures, _smooth_pool, 4)),
    ("upper_gradient", "action",
     _per_function(upper_gradient_failures, _function_pool, 6)),
    ("interpolation_endpoints", "action",
     _per_function(interpolation_endpoint_failures, _interp_pool, 4)),
    ("recovery_bound", "action",
     _per_function(recovery_bound_failures, _interp_pool, 2)),
    ("kinetic_gradient", "minimize",
     lambda rng, samples, extra: (
         (samples or 10), kinetic_gradient_failures(rng, samples or 10))),
    ("objective_gradient", "minimize",
     _per_function(objective_gradient_failures, _minimize_pool, 4)),
    ("descent_monotonicity", "minimize",
     _per_function(descent_monotonicity_failures, _minimize_pool, 2)),
    ("endpoint_pinning", "minimize",
     _per_function(endpoint_pinning_failures, _minimize_pool, 2)),
    ("dubois_reymond_minimizer", "minimize",
     _plain_check(dubois_reymond_minimizer_failures)),
    ("oracle_sandwich", "minimize",
     _plain_check(oracle_sandwich_failures)),
    ("resolvent_gaps_decreasing", "gamma", _flags_check(resolvent_table_flags)),
    ("value_gap_decreasing", "gamma", _flags_check(value_gap_flags)),
    ("recovery_rows_bounded", "gamma", _flags_check(limsup_flags)),
    ("slope_semicontinuity", "gamma", _flags_check(slope_lsc_flags)),
    ("report_determinism", "gamma",
     _plain_check(report_determinism_failures)),
)


def verify_suite(scopes=None, seed: int = 0, samples: int | None = None,
                 extra_functions=()) -> VerifyReport:
    """Run the registered checks for the requested scopes.

    scopes defaults to all of ("convex", "action", "minimize", "gamma");
    a bare string is accepted for one scope.  samples overrides each
    sample-driven check's per-function count (a whole number >= 1; seed is
    a whole number >= 0).  extra_functions join the sampled pool of the
    convex-scope checks and of the action scope's upper_gradient check,
    which is how a deliberately corrupted descriptor gets flushed out.
    """
    seed = whole_number(seed, "seed", 0)
    if samples is not None:
        samples = whole_number(samples, "samples")
    if scopes is None:
        scopes = SCOPES
    if isinstance(scopes, str):
        scopes = (scopes,)
    with malformed_input("scopes and extra_functions"):
        scopes, extra_functions = tuple(scopes), tuple(extra_functions)
        for f in extra_functions:
            if not isinstance(f, ConvexFunction):
                raise ConfigError(f"extra_functions items must be ConvexFunctions, "
                                  f"got {type(f).__name__}")
    for s in scopes:
        if s not in SCOPES:
            raise ConfigError(f"unknown scope {s!r}; choose from {SCOPES}")
    checks = []
    for idx, (name, scope, runner) in enumerate(_REGISTRY):
        if scope not in scopes:
            continue
        rng = np.random.default_rng([seed, idx])
        tested, failures = runner(rng, samples, extra_functions)
        checks.append(CheckResult(name, scope, int(tested), len(failures),
                                  tuple(failures[:5])))
    return VerifyReport(seed, scopes, tuple(checks))
