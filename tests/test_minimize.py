import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_bvp
from scipy.linalg import cho_solve_banded, cholesky_banded

import actionlab
from actionlab.action import dubois_reymond_residual
from actionlab.convex import Indicator, LogSumExp, Quadratic
from actionlab.errors import ConfigError, SolverError
from actionlab.minimize import (MinimizeConfig, _kinetic_solve,
                                closed_form_value, minimize_action)
from actionlab.sets import Ball

HALF_SQ = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)


def test_free_case_exact():
    zero = Quadratic(np.zeros((2, 2)), np.zeros(2), 0.0)
    res = minimize_action(zero, [0.0, 1.0], [2.0, -1.0], 0.7,
                          MinimizeConfig(N=64))
    want = closed_form_value("free", delta=0.7, x0=[0.0, 1.0], xd=[2.0, -1.0])
    assert res.value_true == pytest.approx(want, rel=1e-6)
    assert res.converged


def test_quadratic_1d_matches_closed_form():
    res = minimize_action(HALF_SQ, [1.0], [2.0], 1.0, MinimizeConfig(N=256))
    want = closed_form_value("quadratic_1d", a=1.0, b=2.0, delta=1.0)
    assert want == pytest.approx((5.0 * math.cosh(1.0) - 4.0) / math.sinh(1.0))
    assert res.value_true == pytest.approx(want, rel=1e-2)
    assert res.value_smoothed <= res.value_true + 1e-9


def test_quadratic_general_against_bvp_oracle():
    """Euler-Lagrange BVP for integrand v^2 + c^2 x^2 is x'' = c^2 x."""
    c, a, b, delta = 1.7, 0.3, 1.1, 0.8

    def ode(t, y):
        return np.vstack([y[1], c * c * y[0]])

    def bc(ya, yb):
        return np.array([ya[0] - a, yb[0] - b])

    t = np.linspace(0.0, delta, 200)
    sol = solve_bvp(ode, bc, t, np.vstack([np.linspace(a, b, 200),
                                           np.zeros(200)]), tol=1e-10)
    assert sol.success
    tt = np.linspace(0.0, delta, 4001)
    x, v = sol.sol(tt)
    oracle = np.trapezoid(v * v + c * c * x * x, tt)
    analytic = c * ((a * a + b * b) * math.cosh(c * delta)
                    - 2 * a * b) / math.sinh(c * delta)
    assert oracle == pytest.approx(analytic, rel=1e-6)

    f = Quadratic(np.array([[c]]), np.zeros(1), 0.0)
    res = minimize_action(f, [a], [b], delta, MinimizeConfig(N=128))
    assert res.value_true == pytest.approx(oracle, rel=1e-2)


def test_minimizer_nearly_conserves_energy():
    res = minimize_action(HALF_SQ, [1.0], [2.0], 1.0, MinimizeConfig(N=128))
    assert dubois_reymond_residual(HALF_SQ, res.path) <= 0.2


def test_endpoints_bit_equal():
    x0 = [0.1 + 0.2, -1.0 / 3.0]
    xd = [math.pi, math.e]
    zero = Quadratic(np.zeros((2, 2)), np.zeros(2), 0.0)
    res = minimize_action(zero, x0, xd, 1.0, MinimizeConfig(N=16))
    assert np.array_equal(res.path.nodes[0], np.asarray(x0))
    assert np.array_equal(res.path.nodes[-1], np.asarray(xd))


def test_stage_traces_monotone_decrease():
    traces = []
    res = minimize_action(HALF_SQ, [0.0], [1.5], 1.0, MinimizeConfig(N=64),
                          stage_traces=traces)
    assert len(traces) == len(res.tau_schedule)
    for trace in traces:
        assert len(trace) >= 1
        assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_non_convergence_reported_not_raised():
    cfg = MinimizeConfig(N=64, max_iters=1, grad_tol=1e-14)
    res = minimize_action(HALF_SQ, [1.0], [2.0], 1.0, cfg)
    assert not res.converged
    assert np.isfinite(res.value_true)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 511])
def test_kinetic_solve_matches_banded_cholesky(n):
    dt = 0.7 / (n + 1)
    G = np.random.default_rng(n).normal(size=(n, 2))
    ab = np.zeros((2, n))
    ab[0, 1:] = -2.0 / dt
    ab[1, :] = 4.0 / dt
    want = cho_solve_banded((cholesky_banded(ab), False), G)
    got = _kinetic_solve(G, dt)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_indicator_path_stays_feasible():
    ball = Ball(np.zeros(2), 1.0)
    f = Indicator(ball)
    res = minimize_action(f, [1.0, 0.0], [0.0, 1.0], 1.0, MinimizeConfig(N=64))
    assert ball.contains_many(res.path.nodes).all()
    # the chord is interior, so nothing obstructs the free optimum
    want = closed_form_value("free", delta=1.0, displacement=[-1.0, 1.0])
    assert res.value_true == pytest.approx(want, rel=1e-6)


def test_negative_curvature_schedule_is_admissible():
    f = Quadratic(np.array([[-0.9]]), np.zeros(1), 0.0)
    sched = MinimizeConfig().schedule_for(2.0, f.lam)
    assert all(b < a for a, b in zip(sched, sched[1:]))
    for tau in sched:
        assert 1.0 + tau * f.lam > 0.1
    res = minimize_action(f, [0.0], [1.0], 2.0, MinimizeConfig(N=48))
    assert np.isfinite(res.value_true)


def test_closed_form_value_free_variants():
    a = closed_form_value("free", delta=2.0, displacement=[3.0, 4.0])
    b = closed_form_value("free", delta=2.0, x0=[1.0, 1.0], xd=[4.0, 5.0])
    assert a == b == pytest.approx(12.5)


def test_closed_form_value_unknown_case():
    with pytest.raises(ConfigError):
        closed_form_value("cubic", delta=1.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        MinimizeConfig(N=0)
    with pytest.raises(ConfigError):
        MinimizeConfig(tau_schedule=(0.1, 0.1))
    with pytest.raises(ConfigError):
        minimize_action(HALF_SQ, [0.0], [1.0], -1.0)


@pytest.mark.parametrize("field", ["N", "max_iters", "grad_tol", "tau_schedule"])
@pytest.mark.parametrize("bad", ["abc", None])
def test_config_rejects_non_numbers(field, bad):
    with pytest.raises(ConfigError, match=field):
        MinimizeConfig(**{field: bad if field != "tau_schedule" else [bad]})


def test_stalled_resolvent_raises_solver_error():
    # at epsilon = 1e-6 the smoothed-max Newton solve stalls inside the first
    # stage; the failure propagates instead of becoming converged=False
    f = LogSumExp(np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]]), 1e-6)
    with pytest.raises(SolverError, match="Newton stalled"):
        minimize_action(f, [-1.0, 0.0], [1.0, 0.5], 1.0, MinimizeConfig(N=64))


def test_each_prox_batch_is_one_row_per_chord(monkeypatch):
    # value and gradient share one resolvent batch at the N chord midpoints;
    # a finite-difference gradient would send 2 d N rows at once
    sizes = []
    prox_many = LogSumExp.prox_many

    def counting(self, tau, X):
        sizes.append(X.shape[0])
        return prox_many(self, tau, X)

    monkeypatch.setattr(LogSumExp, "prox_many", counting)
    f = LogSumExp(np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]]), 0.1)
    res = minimize_action(f, [-1.0, 0.0], [1.0, 0.5], 1.0, MinimizeConfig(N=48))
    assert res.converged
    assert sizes and set(sizes) == {48}


def test_minimize_config_fields():
    assert [f.name for f in dataclasses.fields(MinimizeConfig)] == [
        "N", "tau_schedule", "max_iters", "grad_tol"]


def test_import_does_not_load_scipy():
    code = ("import actionlab, sys; assert not any(m == 'scipy' "
            "or m.startswith('scipy.') for m in sys.modules)")
    # the subprocess imports the same package this test run imported
    src = str(pathlib.Path(actionlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
