"""Tests of the benchmark's own code: the reference helpers against
brute-force quadrature and known cases, the host-speed scaling, the metric
tables against BENCHMARK.json, and the refusal to run without the
program's sources.

    python3 -m pytest bench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks as ck

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRIANGLE = np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]])


def _quadrature_action(path, grad, delta, n=20_000):
    """Action of a smooth path by the midpoint rule on n steps."""
    t = (np.arange(n) + 0.5) * delta / n
    h = 1e-6
    X = np.array([path(s) for s in t])
    V = (np.array([path(s + h) for s in t]) - np.array([path(s - h) for s in t])) / (2 * h)
    G = grad(X)
    return float(((V * V).sum(axis=1) + (G * G).sum(axis=1)).sum() * delta / n)


@pytest.mark.parametrize("q, a, b, delta", [(1.0, 1.0, 2.0, 1.0), (2.0, -0.5, 1.5, 0.7),
                                            (-0.6, 0.3, -1.0, 1.3)])
def test_quadratic_action_matches_quadrature_of_the_extremal(q, a, b, delta):
    k = abs(q)

    def path(t):
        return np.array([(a * math.sinh(k * (delta - t)) + b * math.sinh(k * t))
                         / math.sinh(k * delta)])

    brute = _quadrature_action(path, lambda X: q * X, delta)
    assert ck.quadratic_action([[q]], [a], [b], delta) == pytest.approx(brute, rel=1e-6)


def test_quadratic_action_is_the_minimum_and_splits_over_eigenvectors():
    rng = np.random.default_rng(0)
    R, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    w = np.array([-0.6, 1.0])
    Q = R @ np.diag(w) @ R.T
    a, b = np.array([0.4, -0.2]), np.array([-0.3, 0.9])
    delta = 1.0
    ca, cb = R.T @ a, R.T @ b

    def extremal(t, bump=0.0):
        coords = [(x * math.sinh(abs(q) * (delta - t)) + y * math.sinh(abs(q) * t))
                  / math.sinh(abs(q) * delta) for q, x, y in zip(w, ca, cb)]
        return R @ np.array(coords) + bump * math.sin(math.pi * t / delta)

    value = ck.quadratic_action(Q, a, b, delta)
    assert value == pytest.approx(_quadrature_action(extremal, lambda X: X @ Q, delta),
                                  rel=1e-6)
    for bump in (0.05, -0.05):
        assert _quadrature_action(lambda t: extremal(t, bump), lambda X: X @ Q,
                                  delta) > value
    assert ck.quadratic_action(np.zeros((2, 2)), a, b, 0.7) == pytest.approx(
        float((b - a) @ (b - a)) / 0.7)


def test_abs_action_known_values_and_brute_force():
    assert ck.abs_action(-1.0, 1.0, 1.0) == pytest.approx(5.0)
    for delta in (2.0, 3.0, 10.0):
        assert ck.abs_action(-1.0, 1.0, delta) == pytest.approx(4.0)
    for a, b, delta in ((-0.3, 1.2, 1.0), (-2.0, 0.5, 4.0), (0.0, 1.0, 0.5)):
        s = abs(a) + abs(b)
        u = np.linspace(1e-4, delta, 200_001)
        assert ck.abs_action(a, b, delta) == pytest.approx((s * s / u + u).min(), rel=1e-6)
    with pytest.raises(ValueError):
        ck.abs_action(0.5, 1.0, 1.0)


def test_lower_bounds_accept_the_optimum_and_reject_less():
    ck.check_lower_bounds(ck.quadratic_action([[1.0]], [1.0], [2.0], 1.0),
                          [1.0], [2.0], 1.0, 0.5, 2.0)
    with pytest.raises(ck.Wrong):
        ck.check_lower_bounds(0.99, [0.0], [1.0], 1.0, 0.0, 0.0)   # below |dx|^2/delta
    with pytest.raises(ck.Wrong):
        ck.check_lower_bounds(2.5, [0.0], [1.0], 1.0, 0.0, 1.5)    # below 2|df|


def test_conservation_residual_small_on_the_extremal_only():
    t = np.linspace(0.0, 1.0, 257)
    nodes = ((np.sinh(1.0 - t) + 2.0 * np.sinh(t)) / math.sinh(1.0))[:, None]
    assert ck.conservation_residual(t, nodes, lambda M: M) < 1e-4
    straight = (1.0 + t)[:, None]
    assert ck.conservation_residual(t, straight, lambda M: M) > 0.1


def test_midpoint_action_of_a_segment():
    t = np.linspace(0.0, 1.0, 41)
    nodes = (0.5 + t)[:, None]
    action = ck.midpoint_action(t, nodes, lambda M: np.abs(M[:, 0]))
    exact = 1.0 + (1.5 ** 3 - 0.5 ** 3) / 3.0
    assert action == pytest.approx(exact, abs=1e-4)


def test_triangle_projection_confirmed_by_nnls():
    # inside: the projection is the point itself; outside: a vertex or an edge
    cases = {(0.2, 0.2): (0.2, 0.2), (3.0, -1.0): (1.0, 0.0), (2.0, 2.0): (0.5, 0.5),
             (-2.0, -2.0): (-0.5, -0.5)}
    for z, p in cases.items():
        assert ck.hull_residual(TRIANGLE, p) < 1e-12
        assert ck.projection_excess(TRIANGLE, [z], [p])[0] <= 0.0
    assert ck.hull_residual(TRIANGLE, (1.0, 1.0)) > 0.1
    # a hull point that is not the projection fails the optimality test
    assert ck.projection_excess(TRIANGLE, [(2.0, 2.0)], [(1.0, 0.0)])[0] > 0.0


def test_max_linear_resolvent_check_on_exact_and_perturbed_resolvents():
    rng = np.random.default_rng(1)
    tau = 0.5
    X = 2.0 * rng.normal(size=(50, 1))
    A1 = np.array([[1.0], [-0.5], [2.0]])
    Y = X - tau * np.clip(X / tau, -0.5, 2.0)
    ck.check_max_linear_resolvents(A1, tau, X, Y)
    with pytest.raises(ck.Wrong):
        ck.check_max_linear_resolvents(A1, tau, X, Y + 1e-3)
    # in two dimensions, soft thresholding with the box [-1, 1]^2 as hull
    box = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    X2 = 2.0 * rng.normal(size=(50, 2))
    Y2 = X2 - tau * np.clip(X2 / tau, -1.0, 1.0)
    ck.check_max_linear_resolvents(box, tau, X2, Y2)
    with pytest.raises(ck.Wrong):
        ck.check_max_linear_resolvents(box, tau, X2, Y2 * 1.01)


def test_lse_resolvent_check_against_a_fixed_point_solve():
    rng = np.random.default_rng(2)
    eps, tau = 0.1, 0.5
    X = rng.normal(size=(20, 2))
    Y = X.copy()
    # gradient descent on f(y) + |y - x|^2/(2 tau): 1/tau-strongly convex with
    # a (1/eps + 1/tau)-Lipschitz gradient, so step 1/12 contracts by 5/6
    for _ in range(2000):
        Y -= (ck.lse_grad(TRIANGLE, eps, Y) + (Y - X) / tau) / 12.0
    ck.check_lse_resolvents(TRIANGLE, eps, tau, X, Y)
    with pytest.raises(ck.Wrong):
        ck.check_lse_resolvents(TRIANGLE, eps, tau, X, Y + 1e-6)


def test_smoothed_max_bounds_hold_on_a_brute_force_resolvent():
    A = np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(3)
    X = rng.uniform(-3, 3, size=(400, 1))
    for eps in (0.5, 0.1):
        gap = ck.max_value(A, X) - ck.lse_value(A, eps, X)
        assert gap.min() >= -1e-12 and gap.max() <= eps * math.log(2) + 1e-12
    tau, eps = 0.5, 0.2
    grid = np.linspace(-4, 4, 400_001)
    for x in (-1.3, 0.2, 2.0):
        y_lse = grid[np.argmin(ck.lse_value(A, eps, grid[:, None]) + (grid - x) ** 2 / (2 * tau))]
        y_max = np.sign(x) * max(abs(x) - tau, 0.0)
        assert abs(y_lse - y_max) <= ck.smoothed_max_gap_bound(tau, eps, 2) + 1e-4


def test_speed_bias_and_recovery_bound_known_values():
    # h = 0.1, T = 10, delta = 1: q = 1 per coordinate, q^2/4 per unit time
    assert ck.speed_bias([0.0, 0.0], [1.0, 2.0], (10, 20), 10, 1.0) == pytest.approx(0.5)
    bound = (2.0 + 472.0 * 0.1 * 9.0) / 1.1 ** 2
    assert ck.recovery_bound(2.0, 0.1, 1.0, 3.0) == pytest.approx(
        bound * 1.2 + 1e-3 * (1.0 + bound))


def test_metric_tables_match_benchmark_json():
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import tracing

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracing.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "audit",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_scaled_time_drops_sampler_time_and_rescales_to_reference_speed():
    import hostspeed

    sampler = hostspeed.Sampler()
    # twenty samples 0.1 s apart, each 1 ms in the handler, the kernel
    # running at half the reference speed
    sampler.entered = [0.1 * k for k in range(1, 21)]
    sampler.left = [t + 1e-3 for t in sampler.entered]
    sampler.gauge = [2.0 * hostspeed.REFERENCE_S] * 20
    assert sampler.scaled(0.05, 2.05) == pytest.approx((2.0 - 20e-3) / 2.0)
    # work between two samples borrows the nearest ten
    sampler.gauge[:10] = [hostspeed.REFERENCE_S] * 10
    assert sampler.scaled(0.302, 0.352) == pytest.approx(0.05)
