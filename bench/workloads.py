"""The benchmark's workloads: inputs made from a seed, the operations that
call into actionlab, and the independent check of each operation's output.

An operation's `call` holds only program calls and is what the benchmark
times; its `check` runs afterwards, untimed, and raises checks.Unconverged
when the program reports that it did not converge or checks.Wrong when an
output disagrees with an independent computation.  Operations call
actionlab through module attributes (`al.minimize_action`, `cli.main`) at
call time, so the traced run's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import actionlab as al
from actionlab import cli

import checks as ck

WORKLOADS = ("smooth-paths", "kinked-paths", "audit")

TRIANGLE = np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]])
TRIANGLE_X0 = np.array([-1.0, 0.0])
TRIANGLE_XD = np.array([1.0, 0.5])
EPSILONS = (0.5, 0.2, 0.08, 0.03)
PERMUTATION_POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                               [1.0, 1.0], [0.5, -0.5]])
#: verify_suite seeds per audit round: the workload seed plus this many drawn
#: from it.  One seed's four scopes take 1.3 to 2.2 s (the minimize scope
#: 0.24 to 1.45 s), so averaging over nine keeps the seed from setting wall_s
EXTRA_VERIFY_SEEDS = 8
#: iteration cap per tau stage of the failing N = 48 max_linear solve
N48_MAX_ITERS = 150


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def build(workload: str, seed: int, out_dir: str) -> list[Op]:
    """The workload's operations, with every input made from seed."""
    rng = np.random.default_rng(seed)
    if workload == "smooth-paths":
        return _smooth_paths(rng)
    if workload == "kinked-paths":
        return _kinked_paths(rng)
    if workload == "audit":
        return _audit(rng, seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# path solves

def _solve(name, f, x0, xd, delta, config, fvalue, *, grad=None,
           reference=None) -> Op:
    """minimize_action from x0 to xd, checked against the action's lower
    bounds, the conservation law of smooth stationary paths (when grad is
    given) and a known minimal value within 1% (when reference is given)."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    xd = np.atleast_1d(np.asarray(xd, dtype=float))

    def call():
        return al.minimize_action(f, x0, xd, delta, config)

    def check(res):
        if not res.converged:
            raise ck.Unconverged(f"converged=False after {res.iterations} iterations")
        nodes = res.path.nodes
        ck.require(np.array_equal(nodes[0], x0) and np.array_equal(nodes[-1], xd),
                   "path endpoints differ from the inputs")
        ck.check_lower_bounds(res.value_true, x0, xd, delta,
                              float(fvalue(x0)[0]), float(fvalue(xd)[0]))
        if grad is not None:
            r = ck.conservation_residual(res.path.times, nodes, grad)
            ck.require(r <= ck.CONSERVATION_TOL,
                       f"|v|^2 - |grad f|^2 varies by {r:.3f} along the path")
        if reference is not None:
            ck.close(res.value_true, reference, 0.01, "minimal action")

    return Op(name, call, check)


def _quadratic_solve(name, Q, x0, xd, delta) -> Op:
    Q = np.asarray(Q, dtype=float)
    f = al.Quadratic(Q, np.zeros(Q.shape[0]), 0.0)
    return _solve(name, f, x0, xd, delta, al.MinimizeConfig(),
                  lambda X: 0.5 * np.einsum("ij,jk,ik->i", np.atleast_2d(X), Q,
                                            np.atleast_2d(X)),
                  grad=lambda M: M @ Q,
                  reference=ck.quadratic_action(Q, x0, xd, delta))


def _rotated(rng, eigenvalues) -> np.ndarray:
    """A symmetric matrix with the given eigenvalues and a random eigenbasis."""
    R, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    Q = R @ np.diag(eigenvalues) @ R.T
    return 0.5 * (Q + Q.T)


def _value_experiment(name, family, delta, config, *, limit_value=None,
                      strict=False) -> Op:
    """gamma_value_experiment: every solve converged, member and limit values
    above the kinetic bound, the limit value within 1% of limit_value when
    known, and gaps strictly decreasing to a final relative gap <= 2% when
    strict, otherwise a last gap below the first."""
    disp = family.limit.end - family.limit.start
    kinetic = float(disp @ disp) / delta

    def call():
        return al.gamma_value_experiment(family, delta, config)

    def check(rep):
        rows = rep.rows
        stalled = [r["member"] for r in rows if not r["converged"]]
        if stalled or not rep.limit_row["converged"]:
            raise ck.Unconverged(f"members {stalled} or the limit did not converge")
        for v in [r["value"] for r in rows] + [rep.limit_row["value"]]:
            ck.require(v >= kinetic * (1.0 - 1e-12), f"value {v!r} below {kinetic!r}")
        if limit_value is not None:
            ck.close(rep.limit_row["value"], limit_value, 0.01, "limit value")
        gaps = [abs(r["value"] - rep.limit_row["value"]) for r in rows]
        if strict:
            ck.require(all(b < a for a, b in zip(gaps, gaps[1:])),
                       f"gaps not strictly decreasing: {gaps}")
            rel = gaps[-1] / abs(rep.limit_row["value"])
            ck.require(rel <= 0.02, f"final relative gap {rel:.4f} > 2%")
        else:
            ck.require(gaps[-1] < gaps[0], f"gaps do not shrink: {gaps}")
        ck.require(rep.ok, f"report flags {rep.flags}")

    return Op(name, call, check)


# ---------------------------------------------------------------------------
# smooth-paths

def _smooth_paths(rng) -> list[Op]:
    ops = []
    a, b = rng.uniform(-2.0, 2.0, size=(2, 1))
    ops.append(_quadratic_solve("quadratic-1d", [[1.0]], a, b, 1.0))
    x0, xd = rng.uniform(-1.0, 1.0, size=(2, 3))
    ops.append(_quadratic_solve("quadratic-3d-rotated",
                                _rotated(rng, [0.5, 1.0, 2.0]),
                                x0, xd, 1.0))
    x0, xd = rng.uniform(-1.0, 1.0, size=(2, 2))
    ops.append(_quadratic_solve("quadratic-2d-negative",
                                _rotated(rng, [-0.6, 1.0]),
                                x0, xd, 1.0))
    x0, xd = rng.uniform(-2.0, 2.0, size=(2, 2))
    ops.append(_quadratic_solve("free-2d", np.zeros((2, 2)), x0, xd, 0.7))

    lse = al.LogSumExp(TRIANGLE, 0.1)
    ops.append(_solve("log-sum-exp-2d", lse, TRIANGLE_X0, TRIANGLE_XD, 1.0,
                      al.MinimizeConfig(N=512),
                      lambda X: ck.lse_value(TRIANGLE, 0.1, X),
                      grad=lambda M: ck.lse_grad(TRIANGLE, 0.1, M)))

    X = 2.0 * rng.normal(size=(2000, 2))
    ops.append(Op("prox-log-sum-exp-2d", lambda: lse.prox_many(0.5, X),
                  lambda out: ck.check_lse_resolvents(TRIANGLE, 0.1, 0.5, X, out[0])))

    center, radius, weight = np.zeros(2), 0.5, 2.0
    sqd = al.SquaredDistance(al.Ball(center, radius), weight)
    u, v = rng.uniform(-0.5, 0.5, size=2)
    ops.append(_solve(
        "squared-distance-ball", sqd, [-1.0, u], [1.0, v], 1.0,
        al.MinimizeConfig(),
        lambda X: weight * ck.ball_distance(center, radius, X) ** 2,
        grad=lambda M: 2.0 * weight * (M - ck.ball_project(center, radius, M))))

    family = al.family_logsumexp_to_max([[1.0], [-1.0]], EPSILONS, [-1.0], [1.0])
    ops.append(_value_experiment("gamma-value-1d", family, 1.0,
                                 al.MinimizeConfig(N=128),
                                 limit_value=ck.abs_action(-1.0, 1.0, 1.0),
                                 strict=True))

    # fails today: the absolute grad_tol is not scale-free
    ops.append(_quadratic_solve("quadratic-1d-huge", [[1.0]], [-1e8], [1e8], 1.0))
    return ops


# ---------------------------------------------------------------------------
# kinked-paths

def _max_linear_prox(name, f, tau, X) -> Op:
    def call():
        return f.prox_many(tau, X)

    return Op(name, call,
              lambda out: ck.check_max_linear_resolvents(f.vectors, tau, X, out[0]))


def _kinked_paths(rng) -> list[Op]:
    ops = []
    tri = al.MaxLinear(TRIANGLE)

    def tri_value(X):
        return ck.max_value(TRIANGLE, X)

    ops.append(_solve("max-linear-2d-N32", tri, TRIANGLE_X0, TRIANGLE_XD, 1.0,
                      al.MinimizeConfig(N=32), tri_value))
    # fails today: the last tau stage exhausts max_iters.  The first three
    # stages take 6, 20 and 114 iterations; a cap of 150 instead of the
    # default 600 keeps that failure while cutting the solve from about 10 s
    # to 4, so a run samples it several times
    ops.append(_solve("max-linear-2d-N48", tri, TRIANGLE_X0, TRIANGLE_XD, 1.0,
                      al.MinimizeConfig(N=48, max_iters=N48_MAX_ITERS), tri_value))

    absf = al.MaxLinear([[1.0], [-1.0]])

    def abs_value(X):
        return np.abs(np.atleast_2d(X)[:, 0])

    for delta in (1.0, 3.0):  # delta = 3 fails today: the path hovers off the kink
        ops.append(_solve(f"abs-delta{delta:g}", absf, [-1.0], [1.0], delta,
                          al.MinimizeConfig(), abs_value,
                          reference=ck.abs_action(-1.0, 1.0, delta)))

    family = al.family_logsumexp_to_max(TRIANGLE, EPSILONS, TRIANGLE_X0, TRIANGLE_XD)
    ops.append(_value_experiment("gamma-value-2d", family, 1.0,
                                 al.MinimizeConfig(N=32)))

    ops.append(_max_linear_prox("prox-max-linear-2d", tri, 0.5,
                                2.0 * rng.normal(size=(3000, 2))))
    ops.append(_max_linear_prox("prox-max-linear-1d",
                                al.MaxLinear([[1.0], [-0.5], [2.0]]), 0.5,
                                2.0 * rng.normal(size=(10_000, 1))))

    vectors = al.permutation_vectors(PERMUTATION_POINTS)
    d = vectors.shape[1]
    perm = al.family_logsumexp_to_max(vectors, EPSILONS, np.zeros(d),
                                      np.linspace(-1.0, 1.0, d))
    ops.append(_max_linear_prox("prox-permutation", perm.limit.function, 0.5,
                                rng.normal(size=(300, d))))
    ops.append(_resolvent_table("resolvent-table-permutation", perm, 0.5,
                                rng.normal(size=(3, d))))
    return ops


def _resolvent_table(name, family, tau, probes) -> Op:
    """resolvent_convergence_table on a smoothed-max family: the limit
    resolvents pass the max-linear projection checks, and each member's gap
    stays within sqrt(tau eps_h log m) plus the solvers' tolerance."""
    vectors = family.limit.function.vectors
    m = vectors.shape[0]
    epsilons = [mem.function.epsilon for mem in family.members]

    def call():
        return al.resolvent_convergence_table(family, tau, probes)

    def check(rep):
        limits = np.array(rep.limit_row["resolvents"])
        ck.check_max_linear_resolvents(vectors, tau, probes, limits)
        for row in rep.rows:
            bound = ck.smoothed_max_gap_bound(tau, epsilons[row["member"]], m)
            tol = 1e-5 * (1.0 + np.linalg.norm(probes[row["probe"]]))
            ck.require(row["gap"] <= bound + tol,
                       f"member {row['member']} probe {row['probe']}: gap "
                       f"{row['gap']!r} above the smoothing bound {bound!r}")
        ck.require(rep.ok, f"report flags {rep.flags}")

    return Op(name, call, check)


# ---------------------------------------------------------------------------
# audit

#: the oracle-agreement instances of acceptance criterion 4, without the 2-d
#: max_linear one (the slow non-converging solve kinked-paths already has):
#: (name, function factory, x0, xd, grid lo, grid hi, cells, time steps, reach)
_ORACLE_CASES = (
    ("free-1d", lambda: al.Quadratic(np.zeros((1, 1)), np.zeros(1), 0.0),
     [0.0], [1.0], [-0.5], [1.5], (40,), 20, 3),
    ("quadratic-1d", lambda: al.Quadratic(np.array([[1.0]]), np.zeros(1), 0.0),
     [1.0], [2.0], [0.0], [2.5], (200,), 40, 5),
    ("quadratic-1d-linear", lambda: al.Quadratic(np.array([[0.8]]), np.array([-0.4]), 0.1),
     [0.0], [1.0], [-1.0], [2.0], (120,), 30, 4),
    ("quadratic-2d", lambda: al.Quadratic(np.diag([1.0, 2.0]), np.zeros(2), 0.0),
     [1.0, 1.0], [0.0, 0.5], [-0.5, -0.5], [1.5, 1.5], (16, 16), 8, 3),
    ("abs-1d", lambda: al.MaxLinear(np.array([[1.0], [-1.0]])),
     [-1.0], [1.0], [-1.5], [1.5], (60,), 20, 4),
    ("indicator-box-1d", lambda: al.Indicator(al.Box(np.array([-1.0]), np.array([1.0]))),
     [-0.5], [0.5], [-1.0], [1.0], (20,), 10, 2),
    ("indicator-ball-2d", lambda: al.Indicator(al.Ball(np.zeros(2), 1.5)),
     [-1.0, 0.0], [1.0, 0.0], [-1.5, -1.5], [1.5, 1.5], (12, 12), 8, 3),
    ("squared-distance-1d", lambda: al.SquaredDistance(al.Ball(np.zeros(1), 0.5), 1.0),
     [-1.0], [1.0], [-1.25], [1.25], (100,), 20, 4),
    ("log-sum-exp-1d", lambda: al.LogSumExp(np.array([[1.0], [-1.0]]), 0.2),
     [-1.0], [1.0], [-1.5], [1.5], (60,), 20, 4),
)


def _oracle(name, f, x0, xd, lo, hi, cells, steps, reach) -> Op:
    """minimize_action against grid_oracle within 5% plus the grid's speed
    quantization bias, as in acceptance criterion 4."""
    grid = al.GridSpec(lo, hi, cells)
    config = al.MinimizeConfig(N=128, max_iters=200)

    def call():
        return (al.minimize_action(f, x0, xd, 1.0, config),
                al.grid_oracle(f, x0, xd, 1.0, grid, steps, reach=reach))

    def check(out):
        res, g = out
        if not res.converged:
            raise ck.Unconverged(f"converged=False after {res.iterations} iterations")
        tol = 0.05 * max(abs(res.value_true), 0.1) + ck.speed_bias(lo, hi, cells, steps, 1.0)
        ck.require(abs(g - res.value_true) <= tol,
                   f"descent {res.value_true!r} vs grid {g!r} beyond {tol!r}")

    return Op(name, call, check)


def _verify(scope: str, seed: int, index: int) -> Op:
    def call():
        return al.verify_suite(scopes=(scope,), seed=seed)

    def check(rep):
        bad = [c.name for c in rep.checks if not c.passed or c.samples <= 0]
        ck.require(rep.checks and not bad, f"seed {seed}: checks failing or empty: {bad}")

    return Op(f"verify-{scope}-{index}", call, check)


def _cli_twice(argv) -> list[tuple[int, str]]:
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        runs.append((code, out.getvalue()))
    return runs


def _cli_check(runs) -> dict:
    (code_a, out_a), (code_b, out_b) = runs
    ck.require(code_a == 0 and code_b == 0, f"exit codes {code_a}, {code_b}")
    ck.require(out_a == out_b, "two runs printed different bytes")
    return json.loads(out_a)


def _cli_ops(rng, seed: int, out_dir: str) -> list[Op]:
    cli_dir = os.path.join(out_dir, "cli")
    os.makedirs(cli_dir, exist_ok=True)
    verify_argv = ("verify", "--scope", "gamma", "--seed", str(seed),
                   "--csv-dir", cli_dir)

    def check_verify(runs):
        doc = _cli_check(runs)
        ck.require(doc["ok"] and doc["checks"]
                   and all(c["samples"] > 0 for c in doc["checks"]),
                   "verify report not ok or a check without samples")

    a, b = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
    config = {"function": {"kind": "quadratic",
                           "params": {"Q": [[1.0]], "b": [0.0], "c": 0.0}},
              "delta": 1.0, "x0": [a], "xd": [b], "minimize": {"N": 128}}
    config_path = os.path.join(cli_dir, "minimize.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    minimize_argv = ("minimize", "--config", config_path, "--csv-dir", cli_dir)

    def check_minimize(runs):
        doc = _cli_check(runs)
        if not doc["converged"]:
            raise ck.Unconverged("converged=False")
        ck.close(doc["value_true"], ck.quadratic_action([[1.0]], [a], [b], 1.0),
                 0.01, "minimal action")
        with open(doc["csv"], encoding="utf-8") as fh:
            rows = np.array([[float(c) for c in line.split(",")]
                             for line in fh.read().split("\n")[1:] if line])
        ck.require(rows.shape == (129, 2) and rows[0, 1] == a and rows[-1, 1] == b,
                   "path CSV does not hold the pinned endpoints")
        action = ck.midpoint_action(rows[:, 0], rows[:, 1:],
                                    lambda M: np.abs(M[:, 0]))
        ck.close(doc["value_true"], action, 1e-9, "action of the CSV path")

    return [Op("cli-verify", lambda: _cli_twice(verify_argv), check_verify),
            Op("cli-minimize", lambda: _cli_twice(minimize_argv), check_minimize)]


def _experiment_ops(rng) -> list[Op]:
    ops = []
    lse = al.family_logsumexp_to_max([[1.0], [-1.0]], EPSILONS, [-1.0], [1.0])
    center, radius = np.zeros(2), 1.5
    penalties = (1.0, 4.0, 16.0, 64.0)
    pen = al.family_penalty_to_indicator(al.Ball(center, radius), penalties,
                                         [-1.0, 0.0], [1.0, 0.0])
    quad = al.constant_family(al.Quadratic(np.array([[1.0]]), np.zeros(1), 0.0),
                              [0.5], [1.5], size=3)
    tau = 0.5

    probes = rng.uniform(-2.0, 2.0, size=(3, 1))
    ops.append(_resolvent_table("experiment-resolvent-lse", lse, tau, probes))

    pen_probes = rng.uniform(-2.5, 2.5, size=(3, 2))

    def check_pen_resolvent(rep):
        # J of w dist^2 slides toward the projection by 2w tau/(1 + 2w tau),
        # so its distance to the projection (J of the indicator) is
        # dist/(1 + 2w tau)
        dist = ck.ball_distance(center, radius, pen_probes)
        for row in rep.rows:
            want = dist[row["probe"]] / (1.0 + 2.0 * penalties[row["member"]] * tau)
            ck.require(abs(row["gap"] - want) <= 1e-12 * (1.0 + want),
                       f"penalty gap {row['gap']!r} != {want!r}")
        ck.require(rep.ok, f"report flags {rep.flags}")

    ops.append(Op("experiment-resolvent-penalty",
                  lambda: al.resolvent_convergence_table(pen, tau, pen_probes),
                  check_pen_resolvent))

    # limsup: the base path is the straight segment on 40 intervals; its
    # limit action and each family's slope bound S are computed here
    def limsup(name, family, lam, S, limit_slope):
        gamma = al.Path.straight(family.limit.start, family.limit.end, intervals=40)
        taus = (0.2, 0.05)

        def check(rep):
            action = ck.midpoint_action(gamma.times, gamma.nodes, limit_slope)
            ck.close(rep.limit_row["action"], action, 1e-12, "base path action")
            for row in rep.rows:
                bound = ck.recovery_bound(action, row["tau"], lam, S)
                ck.require(row["action"] <= bound,
                           f"member {row['member']} tau {row['tau']}: recovery "
                           f"action {row['action']!r} above {bound!r}")
            ck.require(rep.ok, f"report flags {rep.flags}")

        return Op(name, lambda: al.gamma_limsup_experiment(family, gamma, taus), check)

    ops.append(limsup("experiment-limsup-quadratic", quad, 1.0, 2.0 * 1.5,
                      lambda M: np.abs(M[:, 0])))
    ops.append(limsup("experiment-limsup-lse", lse, 0.0, 2.0 * 1.0,
                      lambda M: np.where(M[:, 0] == 0.0, 0.0, 1.0)))
    ops.append(limsup("experiment-limsup-penalty", pen, 0.0, 0.0,
                      lambda M: np.zeros(len(M))))

    signs = rng.choice([-1.0, 1.0], size=3)
    lse_probes = np.concatenate([[0.0], signs * rng.uniform(0.5, 2.0, size=3)])[:, None]

    def check_lse_slopes(rep):
        for row in rep.rows:
            x = float(lse_probes[row["probe"], 0])
            want = [abs(math.tanh(x / e)) for e in EPSILONS]
            ck.require(np.allclose(row["member_slopes"], want, rtol=1e-12, atol=1e-15),
                       f"probe {x}: member slopes {row['member_slopes']} != {want}")
            ck.require(row["limit_slope"] == (0.0 if x == 0.0 else 1.0),
                       f"probe {x}: limit slope {row['limit_slope']}")
        ck.require(rep.ok, f"report flags {rep.flags}")

    ops.append(Op("experiment-slope-lsc-lse",
                  lambda: al.slope_semicontinuity_table(lse, lse_probes),
                  check_lse_slopes))

    angles = rng.uniform(0.0, 2.0 * math.pi, size=3)
    radii = rng.uniform(0.0, 1.4, size=3)
    pen_inside = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)

    def check_pen_slopes(rep):
        for row in rep.rows:
            ck.require(row["limit_slope"] == 0.0 and not any(row["member_slopes"]),
                       f"slopes inside the ball must vanish: {row}")
        ck.require(rep.ok, f"report flags {rep.flags}")

    ops.append(Op("experiment-slope-lsc-penalty",
                  lambda: al.slope_semicontinuity_table(pen, pen_inside),
                  check_pen_slopes))
    return ops


def _audit(rng, seed: int, out_dir: str) -> list[Op]:
    seeds = [seed] + [int(s) for s in rng.integers(0, 2**31 - 1, size=EXTRA_VERIFY_SEEDS)]
    ops = [_verify(scope, s, i) for i, s in enumerate(seeds)
           for scope in ("convex", "action", "minimize", "gamma")]
    ops += _cli_ops(rng, seed, out_dir)
    ops += [_oracle(f"oracle-{name}", make(), *rest)
            for name, make, *rest in _ORACLE_CASES]
    ops += _experiment_ops(rng)
    return ops
