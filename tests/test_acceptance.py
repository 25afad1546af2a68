"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test is self-contained and seeded; the conftest hook prints a one-line
PASS/FAIL per criterion at the end of the run.
"""
import json
import math

import numpy as np
import pytest

from actionlab.action import (Path, alt_action, coarsened_interpolation_bound,
                              discrete_action, interpolation_bound,
                              interpolation_path)
from actionlab.cli import main
from actionlab.convex import (Indicator, LogSumExp, MaxLinear, Quadratic,
                              SquaredDistance, prox)
from actionlab.experiments import (gamma_limsup_experiment,
                                   gamma_value_experiment,
                                   resolvent_convergence_table,
                                   slope_semicontinuity_table)
from actionlab.families import (constant_family, family_logsumexp_to_max,
                                family_penalty_to_indicator)
from actionlab.minimize import MinimizeConfig, closed_form_value, minimize_action
from actionlab.minnorm import hull_projection
from actionlab.oracle import GridSpec, grid_oracle, speed_quantization_bias
from actionlab.sets import Ball, Box, Halfspace
from actionlab.verify import _REGISTRY


def _registry_runner(name):
    for idx, (nm, _scope, runner) in enumerate(_REGISTRY):
        if nm == name:
            return idx, runner
    raise KeyError(name)


def lse_family():
    return family_logsumexp_to_max([[1.0], [-1.0]], (0.5, 0.2, 0.08, 0.03),
                                   [-1.0], [1.0])


def pen_family():
    return family_penalty_to_indicator(Ball(np.zeros(2), 1.5),
                                       (1.0, 4.0, 16.0, 64.0),
                                       [-1.0, 0.0], [1.0, 0.0])


def test_criterion_1_proximal_closed_forms():
    """Resolvent outputs match independent oracles: eigendecomposition for
    quadratics (1e-10 absolute), the support-function decomposition for
    max-linear (1e-9), and the first-order residual for the smoothed max
    (1e-10); 1000 random (tau, x) draws each."""
    rng = np.random.default_rng([11, 0])

    for i in range(1000):
        d = 1 + i % 4
        B = rng.normal(size=(d, d))
        Q = B @ B.T / d
        if i % 3 == 0:
            Q = Q - 0.4 * np.eye(d)
        b = rng.normal(size=d) * 0.5
        c = float(rng.normal())
        f = Quadratic(Q, b, c)
        hi = 2.0 if f.lam >= 0 else min(2.0, 0.45 / (-f.lam))
        tau = float(np.exp(rng.uniform(np.log(0.01), np.log(hi))))
        x = rng.normal(size=d) * 2.0
        r = prox(f, tau, x)
        w, V = np.linalg.eigh(Q)
        y = V @ ((V.T @ (x - tau * b)) / (1.0 + tau * w))
        env = f.value(y) + float((x - y) @ (x - y)) / (2.0 * tau)
        assert np.max(np.abs(r.resolvent_point - y)) <= 1e-10, (i, f, tau, x)
        assert abs(r.envelope_value - env) <= 1e-10
        assert np.max(np.abs(r.moreau_gradient - (x - y) / tau)) <= 1e-10

    for i in range(1000):
        d = 1 + i % 2
        k = 2 + i % 3
        f = MaxLinear(rng.normal(size=(k, d)))
        tau = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
        x = rng.normal(size=d) * 2.0
        r = prox(f, tau, x)
        p = hull_projection(f.vectors, x / tau)
        assert np.linalg.norm(r.resolvent_point - (x - tau * p)) <= 1e-9
        # Fenchel-Young equality certifies (x - J)/tau as a subgradient at J
        q = (x - r.resolvent_point) / tau
        assert abs(float(q @ r.resolvent_point)
                   - f.value(r.resolvent_point)) <= 1e-9

    for i in range(1000):
        d = 1 + i % 2
        k = 2 + i % 3
        f = LogSumExp(rng.normal(size=(k, d)), float(rng.uniform(0.03, 0.5)))
        tau = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
        x = rng.normal(size=d) * 2.0
        r = prox(f, tau, x)
        y = r.resolvent_point
        res = np.linalg.norm(y + tau * f.subgradient_many(y[None, :])[0] - x)
        assert res <= 1e-10, (i, tau, x, res)


def test_criterion_2_envelope_calculus_sweep():
    """Tilted gradient identity, slope chain, resolvent contraction factor
    (1+lambda*tau)^-1 + 1e-8, and 3/tau envelope-gradient bound: zero
    violations over the sampled pool.  500 draws per pool entry; the pool
    holds 4 quadratics, 3 max-linear, 2 smoothed-max, 3 indicators, and
    2 squared-distance entries, so every kind sees at least 1000 samples."""
    for name in ("tilted_gradient_identity", "slope_chain",
                 "resolvent_lipschitz", "envelope_gradient_lipschitz"):
        idx, runner = _registry_runner(name)
        rng = np.random.default_rng([0, idx])
        tested, failures = runner(rng, 500, ())
        assert tested == 7000, name
        assert failures == [], (name, failures[:3])


def _sample_interp_function(rng, kind):
    if kind == "quadratic":
        d = int(rng.integers(1, 3))
        B = rng.normal(size=(d, d))
        Q = B @ B.T / d + 0.2 * np.eye(d)
        if rng.random() < 0.3:
            Q = Q - 0.5 * np.eye(d)
        return Quadratic(Q, rng.normal(size=d) * 0.5, 0.0)
    if kind == "max_linear":
        d = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        return MaxLinear(rng.normal(size=(k, d)))
    if kind == "log_sum_exp":
        d = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        return LogSumExp(rng.normal(size=(k, d)), float(rng.uniform(0.05, 0.5)))
    if kind == "indicator":
        d = int(rng.integers(1, 3))
        which = rng.integers(0, 3)
        if which == 0:
            return Indicator(Ball(rng.normal(size=d) * 0.3,
                                  float(rng.uniform(0.8, 2.0))))
        if which == 1:
            lo = rng.normal(size=d) - 1.5
            return Indicator(Box(lo, lo + rng.uniform(1.0, 3.0, size=d)))
        n = rng.normal(size=d)
        n /= np.linalg.norm(n)
        return Indicator(Halfspace(n, float(rng.uniform(0.5, 2.0))))
    d = int(rng.integers(1, 3))
    return SquaredDistance(Ball(rng.normal(size=d) * 0.3,
                                float(rng.uniform(0.5, 1.5))),
                           float(rng.uniform(0.5, 3.0)))


def _sample_interp_endpoints(rng, f):
    X = rng.normal(size=(2, f.dim)) * 1.2
    if isinstance(f, Indicator):
        # pull toward the region's interior so endpoint subgradients exist
        X = f.region.project_many(X)
        X = 0.95 * X + 0.05 * f.region.project_many(np.zeros((2, f.dim)))
        X = f.region.project_many(X)
    return X[0], X[1]


def test_criterion_3_interpolation_bounds():
    """200 randomized (kind, tau, delta, x0, xd) instances at M=256: the
    constructed path's action stays at or below the sharp bound, and below
    the coarsened bound when delta = tau.  Per-instance quadrature tolerance
    1e-6*(1+bound)."""
    kinds = ("quadratic", "max_linear", "log_sum_exp", "indicator",
             "squared_distance")
    rng = np.random.default_rng([7, 0])
    violations = []
    coarse_checked = 0
    for i in range(200):
        f = _sample_interp_function(rng, kinds[i % 5])
        hi = 1.0 if f.lam >= 0 else min(1.0, 0.45 / (-f.lam))
        tau = float(np.exp(rng.uniform(np.log(0.05), np.log(hi))))
        delta = tau if i % 2 == 0 else \
            float(np.exp(rng.uniform(np.log(0.05), np.log(1.0))))
        x0, xd = _sample_interp_endpoints(rng, f)
        path = interpolation_path(f, tau, delta, x0, xd, 256)
        act = discrete_action(f, path).total
        bound = interpolation_bound(f, tau, delta, x0, xd)
        if not act <= bound + 1e-6 * (1.0 + abs(bound)):
            violations.append({"i": i, "kind": kinds[i % 5], "which": "sharp",
                               "action": act, "bound": bound})
        if abs(delta - tau) <= 1e-12:
            coarse_checked += 1
            cb = coarsened_interpolation_bound(f, tau, x0, xd)
            if not act <= cb + 1e-6 * (1.0 + abs(cb)):
                violations.append({"i": i, "kind": kinds[i % 5],
                                   "which": "coarse", "action": act,
                                   "bound": cb})
    assert violations == []
    assert coarse_checked == 100


def test_criterion_4_oracle_agreement():
    """Three independent routes to the minimal action agree: the minimizer vs
    the transcendental 1-d value (1%), the minimizer vs |dx|^2/delta in the
    free case (0.1%), and the minimizer vs the layered grid relaxation within
    5% plus the speed-quantization allowance on ten fixed instances.  Every
    solve reaches its stopping rule."""
    res = minimize_action(Quadratic(np.array([[1.0]]), np.zeros(1), 0.0),
                          [1.0], [2.0], 1.0, MinimizeConfig(N=256))
    want = closed_form_value("quadratic_1d", a=1.0, b=2.0, delta=1.0)
    assert res.converged
    assert res.value_true == pytest.approx(want, rel=1e-2)

    zero2 = Quadratic(np.zeros((2, 2)), np.zeros(2), 0.0)
    free = minimize_action(zero2, [0.0, 1.0], [2.0, -1.0], 0.7,
                           MinimizeConfig(N=64))
    assert free.converged
    assert free.value_true == pytest.approx(
        closed_form_value("free", delta=0.7, displacement=[2.0, -2.0]),
        rel=1e-3)

    instances = [
        (Quadratic(np.zeros((1, 1)), np.zeros(1), 0.0),
         [0.0], [1.0], GridSpec([-0.5], [1.5], (40,)), 20, 3, 128),
        (Quadratic(np.array([[1.0]]), np.zeros(1), 0.0),
         [1.0], [2.0], GridSpec([0.0], [2.5], (200,)), 40, 5, 128),
        (Quadratic(np.array([[0.8]]), np.array([-0.4]), 0.1),
         [0.0], [1.0], GridSpec([-1.0], [2.0], (120,)), 30, 4, 128),
        (Quadratic(np.array([[1.0, 0.0], [0.0, 2.0]]), np.zeros(2), 0.0),
         [1.0, 1.0], [0.0, 0.5], GridSpec([-0.5, -0.5], [1.5, 1.5], (16, 16)),
         8, 3, 128),
        (MaxLinear(np.array([[1.0], [-1.0]])),
         [-1.0], [1.0], GridSpec([-1.5], [1.5], (60,)), 20, 4, 128),
        (MaxLinear(np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]])),
         [-1.0, 0.0], [1.0, 0.5], GridSpec([-1.5, -1.0], [1.5, 1.0], (24, 16)),
         8, 3, 96),
        (Indicator(Box(np.array([-1.0]), np.array([1.0]))),
         [-0.5], [0.5], GridSpec([-1.0], [1.0], (20,)), 10, 2, 128),
        (Indicator(Ball(np.zeros(2), 1.5)),
         [-1.0, 0.0], [1.0, 0.0], GridSpec([-1.5, -1.5], [1.5, 1.5], (12, 12)),
         8, 3, 128),
        (SquaredDistance(Ball(np.zeros(1), 0.5), 1.0),
         [-1.0], [1.0], GridSpec([-1.25], [1.25], (100,)), 20, 4, 128),
        (LogSumExp(np.array([[1.0], [-1.0]]), 0.2),
         [-1.0], [1.0], GridSpec([-1.5], [1.5], (60,)), 20, 4, 128),
    ]
    for f, x0, xd, grid, steps, reach, n in instances:
        mres = minimize_action(f, x0, xd, 1.0,
                               MinimizeConfig(N=n, max_iters=200))
        assert mres.converged, type(f).__name__
        g = grid_oracle(f, x0, xd, 1.0, grid, steps, reach=reach)
        bias = speed_quantization_bias(grid, steps, 1.0)
        tol = 0.05 * max(abs(mres.value_true), 0.1) + bias
        assert abs(g - mres.value_true) <= tol, (type(f).__name__, g,
                                                 mres.value_true, tol)


def test_criterion_5_family_value_convergence():
    """Smoothed-max family on [-1, 1] at delta=1: minimal-value gaps to the
    limit are eventually decreasing with final relative gap at most 2%, and
    the resolvent table's final gaps stay at or below 1e-2 on every probe."""
    fam = lse_family()
    val = gamma_value_experiment(fam, 1.0, MinimizeConfig(N=128))
    assert val.ok, val.flags
    gaps = [r["gap_to_limit"] for r in val.rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert val.metadata["final_relative_gap"] <= 0.02

    table = resolvent_convergence_table(fam, 0.3, [[0.0], [0.4], [0.7], [-1.2]])
    assert table.ok, table.flags
    assert all(g <= 1e-2 for g in table.metadata["final_gaps"])


def test_criterion_6_recovery_rows():
    """Every (member, tau) recovery row on both built-in families satisfies
    the (1+tau*lambda)^-2(action + 472*tau*S^2) estimate, and for a constant
    family the action gap to the base curve shrinks as tau does."""
    taus = (0.2, 0.05, 0.0125)
    for fam in (lse_family(), pen_family()):
        gamma = Path.straight(fam.limit.start, fam.limit.end, intervals=64)
        rep = gamma_limsup_experiment(fam, gamma, taus)
        assert rep.ok, (fam.label, rep.flags)
        for r in rep.rows:
            assert r["action"] <= r["bound"] + r["tolerance"]

    const = constant_family(Quadratic(np.array([[1.0]]), np.zeros(1), 0.0),
                            [0.5], [1.5], size=4)
    gamma = Path.straight([0.5], [1.5], intervals=64)
    rep = gamma_limsup_experiment(const, gamma, taus)
    assert rep.ok
    for h in range(const.size):
        gaps = [r["gap_to_limit"] for r in rep.rows if r["member"] == h]
        assert len(gaps) == len(taus)
        assert gaps[0] > gaps[1] > gaps[2]


def test_criterion_7_structural_identities():
    """Null-Lagrangian residual on the exponential flow path decays with
    order >= 0.9 (value e^2-1 within 1e-3 at N=512); upper-gradient residual
    >= -tolerance on 500+ random paths; the slope semicontinuity surrogate
    accepts all family probes."""
    f = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    residuals = []
    for n in (64, 128, 256, 512):
        t = np.linspace(0.0, 1.0, n + 1)
        p = Path(t, np.exp(t)[:, None])
        residuals.append(abs(alt_action(f, p)))
    order = -np.polyfit(np.log([64, 128, 256, 512]), np.log(residuals), 1)[0]
    assert order >= 0.9
    assert residuals[-1] <= 1e-6
    t = np.linspace(0.0, 1.0, 513)
    p = Path(t, np.exp(t)[:, None])
    total = discrete_action(f, p, rule="node-trapezoid").total
    assert total == pytest.approx(math.exp(2.0) - 1.0, abs=1e-3)

    idx, runner = _registry_runner("upper_gradient")
    rng = np.random.default_rng([0, idx])
    tested, failures = runner(rng, 36, ())
    assert tested >= 500
    assert failures == []

    lsc = slope_semicontinuity_table(lse_family(), [[0.7], [-0.9], [0.3]])
    assert lsc.ok, lsc.flags
    pen_lsc = slope_semicontinuity_table(pen_family(),
                                         [[0.0, 0.0], [1.0, 0.0], [1.5, 0.0]])
    assert pen_lsc.ok, pen_lsc.flags


def test_criterion_8_deterministic_outputs(capsys, tmp_path):
    """Rerunning verify --seed 0 and each experiment writes byte-identical
    JSON and CSV."""
    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out

    code1, out1 = run(["verify", "--seed", "0"])
    code2, out2 = run(["verify", "--seed", "0"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"] is True

    fam_doc = {"builder": "logsumexp_to_max", "vectors": [[1.0], [-1.0]],
               "epsilons": [0.5, 0.2, 0.08, 0.03], "x0": [-1.0], "x1": [1.0]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": fam_doc,
        "tau": 0.3,
        "probes": [[0.0], [0.7]],
        "taus": [0.2, 0.05],
        "minimize": {"N": 64},
    }))
    for kind in ("resolvent", "value", "limsup", "slope_lsc"):
        argv = ["gamma", "--config", str(cfg), "--experiment", kind,
                "--csv-dir", str(tmp_path)]
        _, first = run(argv)
        csv_first = (tmp_path / f"gamma_{kind}.csv").read_bytes()
        _, second = run(argv)
        csv_second = (tmp_path / f"gamma_{kind}.csv").read_bytes()
        assert first == second, kind
        assert csv_first == csv_second, kind
