import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from actionlab.convex import (ACTIVE_TOL, Indicator, LogSumExp, MaxLinear,
                              Quadratic, SquaredDistance, evaluate,
                              min_norm_subgradient,
                              moreau_gradient, prox, resolvent_slope,
                              sampled_slope_lower_bound, slope, _row_reduce,
                              _unit_scale)
from actionlab.errors import (ConfigError, DimensionMismatchError,
                              InadmissibleTauError, OutsideDomainError)
from actionlab.experiments import resolvent_convergence_table
from actionlab.families import family_logsumexp_to_max, permutation_vectors
from actionlab.minimize import MinimizeConfig, minimize_action
from actionlab.minnorm import hull_projection_with_gap
from actionlab.sets import Ball, Box, Halfspace


def bisect_prox_1d(f, tau, x, lo=-50.0, hi=50.0, iters=200):
    """Scalar oracle: solve d/dy [f(y) + (y-x)^2/(2 tau)] = 0 by bisection.

    Uses centered finite differences of f only, no package derivatives.
    """
    h = 1e-7

    def dphi(y):
        df = (f(y + h) - f(y - h)) / (2.0 * h)
        return df + (y - x) / tau

    a, b = lo, hi
    assert dphi(a) < 0 < dphi(b)
    for _ in range(iters):
        m = 0.5 * (a + b)
        if dphi(m) < 0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def test_quadratic_prox_example():
    f = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    r = prox(f, 1.0, [2.0])
    assert r.resolvent_point[0] == pytest.approx(1.0, abs=1e-12)
    assert r.envelope_value == pytest.approx(1.0, abs=1e-12)


def test_maxlinear_soft_threshold():
    f = MaxLinear(np.array([[1.0], [-1.0]]))  # |x|
    r = prox(f, 0.5, [2.0])
    assert r.resolvent_point[0] == pytest.approx(1.5, abs=1e-9)


def test_maxlinear_dead_zone_gradient():
    f = MaxLinear(np.array([[1.0], [-1.0]]))
    g = moreau_gradient(f, 0.5, [0.2])
    assert g[0] == pytest.approx(0.4, abs=1e-9)


def test_maxlinear_value_example():
    f = MaxLinear(np.array([[1.0], [-1.0]]))
    assert evaluate(f, [-3.0]) == pytest.approx(3.0)


def test_slope_two_active_pieces():
    f = MaxLinear(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert slope(f, [1.0, 1.0]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)


def test_slope_kink_of_abs():
    f = MaxLinear(np.array([[1.0], [-1.0]]))
    assert slope(f, [0.0]) == pytest.approx(0.0, abs=1e-12)


def test_quadratic_norm_slope():
    f = Quadratic(np.eye(2), np.zeros(2), 0.0)
    assert slope(f, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)


def test_indicator_ball_prox_and_gradient():
    f = Indicator(Ball(np.zeros(2), 1.0))
    r = prox(f, 0.25, [2.0, 0.0])
    np.testing.assert_allclose(r.resolvent_point, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(r.moreau_gradient, [4.0, 0.0], atol=1e-11)
    assert evaluate(f, [2.0, 0.0]) == np.inf
    assert evaluate(f, [0.5, 0.0]) == 0.0


def test_indicator_slope_values():
    f = Indicator(Box(np.array([-1.0]), np.array([1.0])))
    assert slope(f, [0.3]) == 0.0
    assert slope(f, [1.5]) == np.inf


def test_indicator_subgradient_outside_raises():
    f = Indicator(Ball(np.zeros(2), 1.0))
    with pytest.raises(OutsideDomainError):
        min_norm_subgradient(f, [3.0, 0.0])


def test_halfspace_projection_is_member():
    hs = Halfspace(np.array([-0.595, -0.161]), -0.578)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(500, 2)) * 2.0
    Y = hs.project_many(X)
    assert hs.contains_many(Y).all()
    # and single-row evaluation agrees despite a different dot kernel
    for row in Y[:50]:
        assert hs.contains_many(row[None, :])[0]


def test_logsumexp_prox_against_bisection():
    vec = np.array([[1.0], [-1.0]])
    eps = 0.1
    f = LogSumExp(vec, eps)

    def scalar_f(y):
        return eps * np.logaddexp(y / eps, -y / eps) - eps * math.log(2.0)

    for tau, x in [(0.5, 2.0), (0.2, -1.3), (1.0, 0.4)]:
        r = prox(f, tau, [x])
        ref = bisect_prox_1d(scalar_f, tau, x)
        assert r.resolvent_point[0] == pytest.approx(ref, abs=1e-6)
        assert r.solver_residual <= 1e-10


def test_logsumexp_matches_max_at_small_epsilon():
    vec = np.array([[1.0, 0.0], [0.0, 1.0]])
    f = LogSumExp(vec, 1e-4)
    g = MaxLinear(vec)
    x = [0.7, -0.2]
    assert evaluate(f, x) == pytest.approx(evaluate(g, x), abs=1e-3)


def test_squared_distance_prox_slides():
    w = 1.5
    f = SquaredDistance(Ball(np.zeros(1), 1.0), w)
    tau = 0.4
    x = 3.0
    s = 2.0 * w * tau / (1.0 + 2.0 * w * tau)
    r = prox(f, tau, [x])
    assert r.resolvent_point[0] == pytest.approx(x + s * (1.0 - x), abs=1e-12)


def test_inadmissible_tau():
    f = Quadratic(np.array([[-0.5]]), np.zeros(1), 0.0)
    assert f.lam == pytest.approx(-0.5)
    with pytest.raises(InadmissibleTauError):
        prox(f, 2.5, [1.0])
    with pytest.raises(InadmissibleTauError):
        prox(f, -0.1, [1.0])


def test_dimension_mismatch():
    f = Quadratic(np.eye(2), np.zeros(2), 0.0)
    with pytest.raises(DimensionMismatchError):
        prox(f, 0.5, [1.0, 2.0, 3.0])


def test_sampled_lower_bound_hits_quadratic_slope():
    f = Quadratic(np.eye(1), np.zeros(1), 0.0)
    x = np.array([2.0])
    samples = [x - t for t in np.linspace(1e-4, 1.0, 50)[:, None]]
    bound = sampled_slope_lower_bound(f, x, samples)
    assert bound <= slope(f, x) + 1e-9
    assert bound >= slope(f, x) - 1e-3


def test_resolvent_slope_fallback_agrees():
    f = LogSumExp(np.array([[1.0, 0.3], [-0.5, 1.0], [0.2, -0.8]]), 0.25)
    x = [0.4, -0.7]
    est = resolvent_slope(f, x)
    assert est.monotone
    assert not est.diverged
    assert est.value == pytest.approx(slope(f, x), rel=1e-4)


@pytest.mark.parametrize("levels", [0, 1, 3])
def test_resolvent_slope_needs_four_levels(levels):
    with pytest.raises(ConfigError, match="levels"):
        resolvent_slope(Quadratic(np.array([[1.0]]), np.zeros(1)), [1.0],
                        levels=levels)


def test_resolvent_slope_diverges_outside_domain():
    f = Indicator(Ball(np.zeros(1), 1.0))
    est = resolvent_slope(f, [2.0])
    assert est.diverged
    assert est.value == np.inf


@given(st.integers(0, 2_000))
def test_envelope_below_value_and_prox_improves(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    B = rng.normal(size=(d, d))
    f = Quadratic(B @ B.T / d, rng.normal(size=d), float(rng.normal()))
    tau = float(np.exp(rng.uniform(np.log(0.05), np.log(1.5))))
    x = rng.normal(size=d) * 2.0
    r = prox(f, tau, x)
    fx = evaluate(f, x)
    assert r.envelope_value <= fx + 1e-9 * (1.0 + abs(fx))
    fy = evaluate(f, r.resolvent_point)
    assert fy <= fx + 1e-9 * (1.0 + abs(fx))


@given(st.integers(0, 2_000))
def test_lambda_convexity_along_segments(seed):
    """f((1-t)x + ty) <= (1-t)f(x) + tf(y) - (lam/2)t(1-t)|x-y|^2."""
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        B = rng.normal(size=(2, 2))
        f = Quadratic(B @ B.T / 2 - 0.4 * np.eye(2), rng.normal(size=2), 0.0)
    elif kind == 1:
        f = MaxLinear(rng.normal(size=(4, 2)))
    else:
        f = LogSumExp(rng.normal(size=(3, 2)), 0.3)
    x = rng.normal(size=2) * 1.5
    y = rng.normal(size=2) * 1.5
    t = float(rng.uniform(0.0, 1.0))
    z = (1.0 - t) * x + t * y
    lhs = evaluate(f, z)
    rhs = ((1.0 - t) * evaluate(f, x) + t * evaluate(f, y)
           - 0.5 * f.lam * t * (1.0 - t) * float(np.sum((x - y) ** 2)))
    assert lhs <= rhs + 1e-8 * (1.0 + abs(rhs))


TRIANGLE = np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]])


def nnls_projection(A, z):
    """Projection of z onto conv{rows of A} from one NNLS solve.

    With P = A - z, min over u >= 0 of |P^T u|^2 + (sum(u) - 1)^2 is attained
    at u = s w with w minimizing |P^T w| over the simplex, so P^T u / sum(u)
    is the minimum-norm point of conv{p_i} and z plus it is the projection.
    """
    from scipy.optimize import nnls

    P = np.asarray(A, dtype=float) - z
    M = np.vstack([P.T, np.ones(P.shape[0])])
    rhs = np.zeros(M.shape[0])
    rhs[-1] = 1.0
    u, _ = nnls(M, rhs)
    return z + (P.T @ u) / u.sum()


def _hull_cases():
    rng = np.random.default_rng(11)
    thin = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-6]])
    inside = [TRIANGLE.mean(axis=0), [0.1, 0.1], [0.2, -0.1]]
    on_edge = [[0.5, 0.5], [0.25, -0.25], [-0.25, 0.25]]
    cases = {
        "random": (rng.normal(size=(7, 2)), rng.normal(size=(40, 2)) * 3.0),
        "duplicated": (np.vstack([TRIANGLE, TRIANGLE[:2], TRIANGLE[:1]]),
                       rng.normal(size=(40, 2)) * 2.0),
        "collinear": (np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 0.5], [-1.0, -0.5]]),
                      rng.normal(size=(40, 2)) * 2.0),
        "point": (np.tile([[0.3, -0.2]], (4, 1)), rng.normal(size=(10, 2))),
        "inside-edge-vertex": (TRIANGLE, np.vstack([inside, on_edge, TRIANGLE])),
        "thin": (thin, np.vstack([rng.normal(size=(40, 2)),
                                  [[1.0 + 1e-3, 5e-7], [1.0, 2e-6], [0.5, 1e-7]]])),
    }
    return [pytest.param(A, Z, id=name) for name, (A, Z) in cases.items()]


@pytest.mark.parametrize("A, Z", _hull_cases())
@pytest.mark.parametrize("tau", [0.5, 0.03])
def test_maxlinear_2d_prox_matches_wolfe_and_nnls(A, Z, tau):
    f = MaxLinear(A)
    X = tau * Z
    Y, residual = f.prox_many(tau, X)
    for x, y, z in zip(X, Y, Z):
        np.testing.assert_allclose(y, x - tau * nnls_projection(A, z),
                                   rtol=0.0, atol=1e-10)
        wolfe, _ = hull_projection_with_gap(A, z)
        np.testing.assert_allclose(y, x - tau * wolfe, rtol=0.0, atol=1e-10)
    bound = 1e-6 * tau * (1.0 + np.linalg.norm(X, axis=1) / tau)
    assert np.all(residual <= bound)


def test_maxlinear_2d_hull_degenerate_cases():
    square = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5],
                       [0.5, 0.0]])
    np.testing.assert_array_equal(MaxLinear(square)._hull,
                                  [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    line = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
    np.testing.assert_array_equal(MaxLinear(line)._hull, [[0.0, 0.0], [2.0, 2.0]])
    np.testing.assert_array_equal(MaxLinear([[0.3, -0.2]] * 3)._hull, [[0.3, -0.2]])


def test_maxlinear_2d_prox_keeps_rows_inside_the_hull():
    f = MaxLinear(TRIANGLE)
    Z = np.array([[0.1, 0.1], [0.5, 0.5], [1.0, 0.0]])  # inside, edge, vertex
    Y, residual = f.prox_many(0.5, 0.5 * Z)
    np.testing.assert_allclose(Y, 0.0, atol=1e-15)
    assert np.all(residual <= 1e-12)


def test_maxlinear_2d_minimize_avoids_per_row_wolfe(monkeypatch):
    import actionlab.convex as convex

    def refuse(*args, **kwargs):
        raise AssertionError("2-d resolvent fell back to per-row Wolfe")

    monkeypatch.setattr(convex, "hull_projection_with_gap", refuse)
    res = minimize_action(MaxLinear(TRIANGLE), [-1.0, 0.0], [1.0, 0.5], 1.0,
                          MinimizeConfig(N=16))
    assert np.isfinite(res.value_true)


def _gradient_cases():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(3, 3))
    cases = {
        "quadratic": Quadratic(B @ B.T, rng.normal(size=3), 0.0),
        "quadratic-negative": Quadratic([[-0.8, 0.3], [0.3, 1.0]], [0.2, -0.4], 0.0),
        "log_sum_exp": LogSumExp(rng.normal(size=(4, 2)), 0.3),
        "max_linear-1d": MaxLinear([[1.0], [-0.5], [2.0]]),
        "max_linear-2d": MaxLinear(rng.normal(size=(5, 2))),
        "max_linear-3d": MaxLinear(rng.normal(size=(6, 3))),
        "indicator-ball": Indicator(Ball([0.1, 0.2], 1.0)),
        "indicator-box": Indicator(Box([-1.0, -0.5, 0.0], [1.0, 0.5, 2.0])),
        "indicator-halfspace": Indicator(Halfspace([1.0, -2.0], 0.3)),
        "squared_distance-ball": SquaredDistance(Ball([0.1, 0.2], 1.0), 1.5),
        "squared_distance-box": SquaredDistance(Box([-1.0, -0.5], [1.0, 0.5]), 0.7),
        "log_sum_exp-eps0.08": LogSumExp(rng.normal(size=(3, 2)), 0.08),
    }
    return [pytest.param(f, id=name) for name, f in cases.items()]


@pytest.mark.parametrize("f", _gradient_cases())
def test_envelope_sq_gradient_matches_central_differences(f):
    """grad |(x - J_tau(x))/tau|^2 = 2 K G, with K from envelope_derivatives_many,
    against central differences of that value."""
    tau = 0.3
    rng = np.random.default_rng(f.dim)
    # max-linear rows at hull scale land inside, on faces and at vertices
    spread = 1.5 * tau if isinstance(f, MaxLinear) else 2.0
    X = spread * rng.normal(size=(200, f.dim))

    def phi(P):
        Y, _ = f.prox_many(tau, P)
        G = (P - Y) / tau
        return np.einsum("ij,ij->i", G, G)

    Y, _ = f.prox_many(tau, X)
    K, _ = f.envelope_derivatives_many(tau, X, Y)
    grad = 2.0 * np.einsum("kij,kj->ki", K, (X - Y) / tau)
    h = 1e-6 * (1.0 + np.abs(X).max(axis=1))
    fd = np.empty_like(X)
    for j in range(f.dim):
        step = np.zeros_like(X)
        step[:, j] = h
        fd[:, j] = (phi(X + step) - phi(X - step)) / (2.0 * h)
    err = np.abs(grad - fd).max(axis=1)
    assert np.all(err <= 1e-6 * (1.0 + np.abs(fd).max(axis=1)))


@pytest.mark.parametrize("f", [p for p in _gradient_cases()
                               if p.id.startswith(("quadratic", "log_sum_exp",
                                                   "squared_distance"))])
def test_envelope_hessian_matches_central_differences(f):
    """K = grad^2 f_tau against central differences of (x - J_tau(x))/tau
    for the smooth kinds, whose envelope gradient is differentiable
    everywhere."""
    tau = 0.3
    rng = np.random.default_rng(f.dim + 10)
    X = 2.0 * rng.normal(size=(100, f.dim))

    def grad_env(P):
        return (P - f.prox_many(tau, P)[0]) / tau

    Y, _ = f.prox_many(tau, X)
    K, _ = f.envelope_derivatives_many(tau, X, Y)
    assert K.shape == (100, f.dim, f.dim)
    np.testing.assert_allclose(K, K.transpose(0, 2, 1), atol=1e-12)
    h = 1e-6 * (1.0 + np.abs(X).max(axis=1, keepdims=True))
    for j in range(f.dim):
        step = np.zeros_like(X)
        step[:, j:j + 1] = h
        fd = (grad_env(X + step) - grad_env(X - step)) / (2.0 * h)
        err = np.abs(K[:, :, j] - fd).max(axis=1)
        assert np.all(err <= 1e-6 * (1.0 + np.abs(fd).max(axis=1)))


def _curvature_cases():
    rng = np.random.default_rng(7)
    cases = {f"log_sum_exp-{d}d-eps{eps:g}": LogSumExp(rng.normal(size=(4, d)), eps)
             for d in (1, 2, 3) for eps in (0.3, 1e-2, 1e-3)}
    cases["indicator-ball"] = Indicator(Ball([0.1, 0.2], 1.0))
    cases["squared_distance-ball"] = SquaredDistance(Ball([0.1, 0.2], 1.0), 1.5)
    cases["squared_distance-ball-3d"] = SquaredDistance(Ball([0.0, 0.3, -0.2], 0.8), 0.4)
    return [pytest.param(f, id=name) for name, f in cases.items()]


@pytest.mark.parametrize("f", _curvature_cases())
def test_envelope_curvature_completes_the_slope_hessian(f):
    """2 K^2 + 2 C, with (K, C) from envelope_derivatives_many, is the
    Hessian of phi_tau = |grad f_tau|^2: it matches central differences of
    the exact gradient 2 K G, on ball regions at points inside and outside."""
    tau = 0.3
    rng = np.random.default_rng(f.dim + 20)
    X = 2.0 * rng.normal(size=(200, f.dim))
    if isinstance(f, (Indicator, SquaredDistance)):
        inside = f.region.contains_many(X)
        assert inside.any() and not inside.all()

    def grad_phi(P):
        Y, _ = f.prox_many(tau, P)
        K, _ = f.envelope_derivatives_many(tau, P, Y)
        return 2.0 * np.einsum("kij,kj->ki", K, (P - Y) / tau)

    Y, _ = f.prox_many(tau, X)
    K, C = f.envelope_derivatives_many(tau, X, Y)
    assert C.shape == (200, f.dim, f.dim)
    hess = 2.0 * K @ K + 2.0 * C
    h = 1e-6 * (1.0 + np.abs(X).max(axis=1, keepdims=True))
    for j in range(f.dim):
        step = np.zeros_like(X)
        step[:, j:j + 1] = h
        fd = (grad_phi(X + step) - grad_phi(X - step)) / (2.0 * h)
        err = np.abs(hess[:, :, j] - fd).max(axis=1)
        assert np.all(err <= 1e-5 * (1.0 + np.abs(fd).max(axis=1)))


@pytest.mark.parametrize("f", [
    Quadratic([[2.0, 0.5], [0.5, 1.0]], [0.1, -0.2]),
    MaxLinear([[1.0], [-0.5], [2.0]]),
    MaxLinear(TRIANGLE),
    MaxLinear([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.5, -0.5, 0.5]]),
    Indicator(Box([-1.0, -0.5], [1.0, 0.5])),
    Indicator(Halfspace([1.0, -2.0], 0.3)),
    SquaredDistance(Box([-1.0, -0.5], [1.0, 0.5]), 0.7),
    SquaredDistance(Halfspace([1.0, -2.0], 0.3), 0.7),
], ids=["quadratic", "max_linear-1d", "max_linear-2d", "max_linear-3d",
        "indicator-box", "indicator-halfspace", "squared_distance-box",
        "squared_distance-halfspace"])
def test_envelope_curvature_is_none_where_gauss_newton_is_exact(f):
    # K is piecewise constant for these kinds, so C = 0 and the minimizer
    # keeps its Gauss-Newton step
    X = 2.0 * np.random.default_rng(0).normal(size=(20, f.dim))
    Y, _ = f.prox_many(0.3, X)
    assert f.envelope_derivatives_many(0.3, X, Y)[1] is None


def test_log_sum_exp_derivatives_form_weights_and_hessian_once(monkeypatch):
    # K and C share the softmax weights and the Hessian of one call
    f = LogSumExp(TRIANGLE, 0.1)
    X = np.random.default_rng(3).normal(size=(20, 2))
    Y, _ = f.prox_many(0.3, X)
    counts = {"weights": 0, "hessian": 0}
    softmax, hessian = LogSumExp._softmax, LogSumExp._hessian

    def counting_weights(self, Z):
        counts["weights"] += 1
        return softmax(self, Z)

    def counting_hessian(self, W, g):
        counts["hessian"] += 1
        return hessian(self, W, g)

    monkeypatch.setattr(LogSumExp, "_softmax", counting_weights)
    monkeypatch.setattr(LogSumExp, "_hessian", counting_hessian)
    f.envelope_derivatives_many(0.3, X, Y)
    assert counts == {"weights": 1, "hessian": 1}


@pytest.mark.parametrize("f", [
    Indicator(Ball([0.1, 0.2], 1.0)), SquaredDistance(Ball([0.1, 0.2], 1.0), 1.5),
    Indicator(Box([-1.0, -0.5], [1.0, 0.5])),
    SquaredDistance(Halfspace([1.0, -2.0], 0.3), 0.7),
], ids=["indicator-ball", "squared_distance-ball", "indicator-box",
        "squared_distance-halfspace"])
def test_region_derivatives_take_one_projection_jacobian(f, monkeypatch):
    # K and C of a region kind come from the same Jacobian of the projection
    region_cls = type(f.region)
    jacobian = region_cls.project_jacobian_many
    calls = []

    def counting(self, X):
        calls.append(X.shape[0])
        return jacobian(self, X)

    monkeypatch.setattr(region_cls, "project_jacobian_many", counting)
    X = 2.0 * np.random.default_rng(5).normal(size=(20, 2))
    Y, _ = f.prox_many(0.3, X)
    f.envelope_derivatives_many(0.3, X, Y)
    assert calls == [20]


@pytest.mark.parametrize("f", _gradient_cases())
def test_prox_many_rejects_inadmissible_tau_per_row(f):
    """Every row's tau obeys require_admissible's rule: positive, finite and
    1 + tau*lambda > 0."""
    X = np.zeros((3, f.dim))
    bad = [0.0, -2.0, math.nan, math.inf]
    if f.lam < 0:
        bad.append(-1.0 / f.lam)
    for tau in bad:
        with pytest.raises(InadmissibleTauError):
            f.prox_many(tau, X)
        with pytest.raises(InadmissibleTauError):
            f.prox_many(np.array([0.5, tau, 0.5]), X)


@pytest.mark.parametrize("f", _gradient_cases())
def test_envelope_derivatives_reject_bad_tau_as_prox_many_does(f):
    """envelope_derivatives_many reads tau by prox_many's rules: an
    inadmissible tau, scalar or in one row, raises InadmissibleTauError, a tau
    of the wrong shape DimensionMismatchError, and a non-number
    InadmissibleTauError."""
    X = 1.5 * np.random.default_rng(7).normal(size=(3, f.dim))
    Y, _ = f.prox_many(0.3, X)
    bad = [0.0, -0.1, math.nan, math.inf]
    if f.lam < 0:
        bad.append(-1.0 / f.lam)
    for tau in bad:
        with pytest.raises(InadmissibleTauError):
            f.envelope_derivatives_many(tau, X, Y)
        with pytest.raises(InadmissibleTauError):
            f.envelope_derivatives_many(np.array([0.3, tau, 0.3]), X, Y)
    with pytest.raises(DimensionMismatchError):
        f.envelope_derivatives_many(np.array([0.3, 0.3]), X, Y)
    with pytest.raises(InadmissibleTauError):
        f.envelope_derivatives_many("abc", X, Y)
    K, _ = f.envelope_derivatives_many(np.array([0.3, 0.3, 0.3]), X, Y)
    assert np.array_equal(K, f.envelope_derivatives_many(0.3, X, Y)[0])


def test_envelope_derivatives_tau_examples():
    # 1 + tau*lambda = 0 divided by zero; a scalar tau keeps the broadcast K
    f = Quadratic(np.diag([1.0, -2.0]), np.zeros(2))
    X = np.zeros((4, 2))
    with pytest.raises(InadmissibleTauError, match="lambda"):
        f.envelope_derivatives_many(0.5, X, X)
    K, C = f.envelope_derivatives_many(0.2, X, X)
    assert K.shape == (4, 2, 2) and K.strides[0] == 0 and C is None


def test_prox_many_inadmissible_tau_examples():
    with pytest.raises(InadmissibleTauError):
        MaxLinear([[1.0], [-1.0]]).prox_many(np.array([0.0, -2.0]),
                                             np.array([[1.0], [1.0]]))
    with pytest.raises(InadmissibleTauError, match="lambda"):
        Quadratic([[-1.0]], [0.0]).prox_many(1.0, np.array([[1.0]]))
    with pytest.raises(InadmissibleTauError):
        Quadratic([[1.0]], [0.0]).prox_many(-1.0, np.array([[1.0]]))


@pytest.mark.parametrize("f", _gradient_cases())
def test_prox_many_per_row_tau_matches_scalar_calls(f):
    rng = np.random.default_rng(3)
    taus = np.exp(rng.uniform(np.log(0.05), np.log(1.5), size=40))
    if f.lam < 0:
        taus = np.minimum(taus, 0.45 / (-f.lam))
    X = 1.5 * rng.normal(size=(40, f.dim))
    Y, res = f.prox_many(taus, X)
    assert Y.shape == X.shape and res.shape == (40,)
    for tau, x, y, r in zip(taus, X, Y, res):
        y1, r1 = f.prox_many(float(tau), x[None, :])
        np.testing.assert_allclose(y, y1[0], rtol=1e-13, atol=1e-13)
        # a residual can be the root of a gap at rounding level, so compare
        # squares against the rounding floor of |x|^2
        np.testing.assert_allclose(r**2, r1[0]**2, rtol=1e-13,
                                   atol=1e-14 * (1.0 + x @ x))
    # envelope_derivatives_many takes the same (k,) taus, row by row; a
    # column of one tau rounds exactly as that tau does
    K, C = f.envelope_derivatives_many(taus, X, Y)
    assert K.shape == (40, f.dim, f.dim) and (C is None or C.shape == K.shape)
    for i, (tau, x, y) in enumerate(zip(taus, X, Y)):
        K1, C1 = f.envelope_derivatives_many(float(tau), x[None, :], y[None, :])
        np.testing.assert_allclose(K[i], K1[0], rtol=1e-12,
                                   atol=1e-12 * (1.0 + np.abs(K1).max()))
        assert (C is None) == (C1 is None)
        if C is not None:
            np.testing.assert_allclose(C[i], C1[0], rtol=1e-12,
                                       atol=1e-12 * (1.0 + np.abs(C1).max()))
    for one, column in zip(f.envelope_derivatives_many(0.3, X, Y),
                           f.envelope_derivatives_many(np.full(40, 0.3), X, Y)):
        assert (one is None and column is None) or np.array_equal(one, column)


_SCALED = {
    "log_sum_exp": LogSumExp([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]], 0.05),
    "log_sum_exp-3d": LogSumExp(np.random.default_rng(8).normal(size=(4, 3)), 0.4),
    "squared_distance-ball": SquaredDistance(Ball([0.1, 0.2], 1.0), 6.0),
    "squared_distance-box": SquaredDistance(Box([-1.0, -0.5], [1.0, 0.5]), 0.3),
}


@pytest.mark.parametrize("f", list(_SCALED.values()), ids=list(_SCALED))
def test_unit_scale_identities(f):
    """f = c g(L .) for (g, c, L) = _unit_scale(f), so J^f_tau(x) =
    J^g_{c L^2 tau}(L x)/L and f's envelope derivatives at x are c L^2 K and
    c^2 L^4 C of g's at L x."""
    g, c, L = _unit_scale(f)
    assert type(g) is type(f) and _unit_scale(g)[1:] == (1.0, 1.0)
    rng = np.random.default_rng(2)
    X = 1.5 * rng.normal(size=(60, f.dim))
    taus = np.exp(rng.uniform(np.log(0.01), np.log(1.0), size=60))

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    close(c * g.value_many(L * X), f.value_many(X))
    # an iterative resolvent is within its residual of the exact one
    Y, res = f.prox_many(taus, X)
    Yg, res_g = g.prox_many(c * L * L * taus, L * X)
    assert (np.linalg.norm(Yg / L - Y, axis=1)
            <= res + res_g / L + 1e-12 * np.linalg.norm(Y, axis=1)).all()
    K, C = f.envelope_derivatives_many(taus, X, Y)
    Kg, Cg = g.envelope_derivatives_many(c * L * L * taus, L * X, L * Y)
    s = c * L * L
    close(s * Kg, K)
    assert (C is None) == (Cg is None)
    if C is not None:
        close(s * s * Cg, C)


@pytest.mark.parametrize("f", [Quadratic([[2.0]], [0.1]), MaxLinear([[1.0], [-1.0]]),
                               Indicator(Ball([0.0], 1.0)),
                               type("Sub", (LogSumExp,), {})([[1.0], [-1.0]], 0.1)],
                         ids=["quadratic", "max_linear", "indicator", "lse-subclass"])
def test_unit_scale_of_other_functions_is_themselves(f):
    assert _unit_scale(f) == (f, 1.0, 1.0) and _unit_scale(f)[0] is f


@pytest.mark.parametrize("f", _gradient_cases())
def test_prox_many_validates_points(f):
    """A nested list is converted; a wrong width and a non-finite row raise
    the package's errors, not a bare AttributeError or ValueError."""
    X = 0.7 * np.random.default_rng(f.dim).normal(size=(3, f.dim))
    Y, res = f.prox_many(0.5, X)
    Yl, resl = f.prox_many(0.5, X.tolist())
    np.testing.assert_array_equal(Yl, Y)
    np.testing.assert_array_equal(resl, res)
    for wrong in (np.zeros(f.dim + 1), np.zeros((3, f.dim + 1)), [[0.0] * (f.dim + 1)]):
        with pytest.raises(DimensionMismatchError):
            f.prox_many(0.5, wrong)
    X[1, 0] = math.nan
    with pytest.raises(OutsideDomainError):
        f.prox_many(0.5, X)


@pytest.mark.parametrize("f", _gradient_cases())
def test_bad_tau_is_an_admissibility_or_shape_error(f):
    x = np.zeros(f.dim)
    for tau in ("abc", None, [0.1, 0.2]):
        with pytest.raises(InadmissibleTauError):
            prox(f, tau, x)
    X = np.zeros((3, f.dim))
    for taus in (np.full(2, 0.1), np.full(4, 0.1), np.full((3, 1), 0.1)):
        with pytest.raises(DimensionMismatchError, match="tau"):
            f.prox_many(taus, X)


@pytest.mark.parametrize("f", [MaxLinear([[1.0], [-1.0]]),
                               Quadratic([[1.0]], [0.0])], ids=["abs", "quadratic"])
@pytest.mark.parametrize("tau0", [-1.0, 0.0, math.nan, math.inf, "abc"])
def test_resolvent_slope_rejects_bad_tau0(f, tau0):
    with pytest.raises(InadmissibleTauError):
        resolvent_slope(f, [1.0], tau0=tau0)


def test_resolvent_slope_is_one_resolvent_batch(monkeypatch):
    calls = []
    prox_many = Quadratic.prox_many

    def counting(self, tau, X):
        calls.append(X.shape[0])
        return prox_many(self, tau, X)

    monkeypatch.setattr(Quadratic, "prox_many", counting)
    est = resolvent_slope(Quadratic([[-0.5]], [0.2]), [1.0], tau0=3.0)
    assert calls == [13]
    assert est.taus[0] == pytest.approx(0.9)  # shrunk to 0.45 / |lambda|
    assert est.value == pytest.approx(0.3, rel=1e-3)


def _two_way_ties(A, rng, count):
    """Rows x at which exactly two vectors of A attain max_i <a_i, x>."""
    rows, pairs = [], []
    while len(rows) < count:
        x = rng.normal(size=A.shape[1])
        i, j = np.argsort(A @ x)[-2:]
        e = A[i] - A[j]
        x = x - (e @ x) / (e @ e) * e
        dots = A @ x
        others = np.delete(dots, [i, j])
        if dots[i] - others.max() > 1e-3:
            rows.append(x)
            pairs.append((i, j))
    return np.array(rows), pairs


@pytest.mark.parametrize("d", [2, 3])
def test_two_vector_tie_subgradient_is_closed_form(d, monkeypatch):
    import actionlab.convex as convex
    from actionlab.minnorm import min_norm_point

    rng = np.random.default_rng(d)
    A = rng.normal(size=(5, d))
    X, pairs = _two_way_ties(A, rng, 60)
    f = MaxLinear(A)
    # duplicated vectors tie too; their segment is a point
    e = np.eye(d)
    dup = MaxLinear(np.vstack([e[0], e[0], e[1]]))

    def refuse(P):
        raise AssertionError(f"Wolfe called on {len(P)} vectors")

    monkeypatch.setattr(convex, "min_norm_point", refuse)
    G = f.subgradient_many(X)
    for g, (i, j) in zip(G, pairs):
        np.testing.assert_allclose(g, min_norm_point(A[[i, j]]), rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(dup.subgradient_many((e[0] - e[1])[None, :]),
                                  e[:1])


SMOOTHED_MAX_VECTORS = {1: np.array([[1.0], [-0.5], [2.0]]), 2: TRIANGLE}


def _lse_residual(A, eps, tau, X, Y):
    """|y + tau grad f(y) - x| per row, with the softmax written out here."""
    S = Y @ A.T / eps
    W = np.exp(S - S.max(axis=1, keepdims=True))
    grad = (W / W.sum(axis=1, keepdims=True)) @ A
    return np.linalg.norm(Y + tau * grad - X, axis=1)


@pytest.mark.parametrize("tau", [0.004, 0.1, 0.5])
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("d", [1, 2])
def test_small_epsilon_resolvent_fuzz(d, eps, tau):
    """The smoothed-max resolvent never raises at small eps; its residual is
    |y + tau grad f(y) - x|, and that bounds the distance to the max-linear
    resolvent beyond sqrt(tau eps log m) (the prox objective is 1-strongly
    convex).  Down to eps = 1e-4 the residual reaches 1e-10 (1 + |x|)."""
    A = SMOOTHED_MAX_VECTORS[d]
    rng = np.random.default_rng([d, int(-math.log10(eps)), int(1000 * tau)])
    X = 2.0 * rng.normal(size=(2000, d))
    Y, res = LogSumExp(A, eps).prox_many(tau, X)
    scale = 1.0 + np.linalg.norm(X, axis=1)
    np.testing.assert_allclose(res, _lse_residual(A, eps, tau, X, Y),
                               rtol=0.0, atol=1e-14 * float(scale.max()))
    sharp, _ = MaxLinear(A).prox_many(tau, X)
    bound = math.sqrt(tau * eps * math.log(A.shape[0])) + res
    assert np.all(np.linalg.norm(Y - sharp, axis=1) <= bound)
    if eps >= 1e-4:
        assert np.all(res <= 1e-10 * scale)


def test_smoothed_max_resolvent_iterations(monkeypatch):
    """One Hessian per Newton iteration, at most 12 of them on 2000 triangle
    rows at eps = 1e-4, and one softmax pass per line-search trial: after the
    pass at the starting points no point goes through the softmax twice, so
    the accepted trial's pass is the one reused.  (Starting points repeat:
    every x with x/tau inside the hull starts at 0.)"""
    f = LogSumExp(TRIANGLE, 1e-4)
    X = 2.0 * np.random.default_rng(0).normal(size=(2000, 2))
    hessians, passes = [], []
    hessian, softmax = LogSumExp._hessian, LogSumExp._softmax

    def counting_hessian(self, W, g):
        hessians.append(W.shape[1])
        return hessian(self, W, g)

    def recording_weights(self, P):     # P holds the points as columns
        passes.append(P.T.copy())
        return softmax(self, P)

    monkeypatch.setattr(LogSumExp, "_hessian", counting_hessian)
    monkeypatch.setattr(LogSumExp, "_softmax", recording_weights)
    f.prox_many(0.5, X)
    assert 1 <= len(hessians) <= 12
    assert passes[0].shape == X.shape
    points = np.concatenate([np.unique(passes[0], axis=0)] + passes[1:])
    assert np.unique(points, axis=0).shape[0] == points.shape[0]


SMOOTHED_MAX_3D = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                            [-0.5, -0.5, -0.5]])


@pytest.mark.parametrize("eps", [0.1, 1e-3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_smoothed_max_resolvent_is_start_independent(d, eps, monkeypatch):
    """prox_many from a start agrees with the cold prox_many within the two
    residuals (each |r| bounds the distance to J_tau(x)) from starts at the
    answer, near it and 10 units away; a start at the answer takes no Newton
    iteration."""
    A = SMOOTHED_MAX_3D if d == 3 else SMOOTHED_MAX_VECTORS[d]
    f = LogSumExp(A, eps)
    tau = 0.5
    rng = np.random.default_rng([d, int(-math.log10(eps))])
    X = 2.0 * rng.normal(size=(200, d))
    Y0, res0 = f.prox_many(tau, X)
    scale = 1.0 + np.linalg.norm(X, axis=1)
    U = rng.normal(size=X.shape)
    starts = {"answer": Y0, "near": Y0 + 1e-3 * rng.normal(size=X.shape),
              "far": Y0 + 10.0 * U / np.linalg.norm(U, axis=1, keepdims=True)}
    hessians = []
    hessian = LogSumExp._hessian

    def counting(self, W, g):
        hessians.append(W.shape[1])
        return hessian(self, W, g)

    monkeypatch.setattr(LogSumExp, "_hessian", counting)
    for name, start in starts.items():
        hessians.clear()
        Y, res = f.prox_many(tau, X, start=start)
        if name == "answer":
            assert hessians == []
        np.testing.assert_allclose(res, _lse_residual(A, eps, tau, X, Y),
                                   rtol=0.0, atol=1e-14 * float(scale.max()))
        # the residuals are rounded too, by about an ulp of |x|
        assert np.all(np.linalg.norm(Y - Y0, axis=1)
                      <= res + res0 + 1e-15 * scale), name
    with pytest.raises(DimensionMismatchError):
        f.prox_many(tau, X, start=Y0[:-1])
    with pytest.raises(OutsideDomainError):
        f.prox_many(tau, X, start=np.full_like(Y0, math.nan))


def test_smoothed_max_3d_cold_start_stall():
    # from x, the |r|-damped Newton steps crawled to the iteration cap on this
    # input; from the per-row max-linear resolvent it reaches the target
    f = LogSumExp([[-0.394, 0.085, -0.262], [0.789, -2.896, -1.798],
                   [-2.209, 1.427, 0.835]], 0.000277)
    x = [-1.945, 2.219, -0.731]
    _, res = f.prox_many(1.548, [x])
    assert res[0] <= 1e-10 * (1.0 + np.linalg.norm(x))


PERMUTATION_HULL = permutation_vectors([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                        [1.0, 1.0], [0.5, -0.5]])


@pytest.mark.parametrize("d, m", [(3, 4), (3, 25), (4, 10), (10, 40), (10, 120)])
def test_maxlinear_prox_per_row_tau_matches_nnls(d, m):
    rng = np.random.default_rng(d * m)
    A = PERMUTATION_HULL if m == 120 else rng.normal(size=(m, d))
    f = MaxLinear(A)
    taus = rng.uniform(0.02, 2.0, size=30)
    X = rng.normal(size=(30, d)) * np.repeat([0.1, 1.0, 5.0], 10)[:, None]
    Y, residual = f.prox_many(taus, X)
    for x, y, tau, r in zip(X, Y, taus, residual):
        z = x / tau
        R = math.sqrt(1.0 + float(np.max(np.sum((A - z) ** 2, axis=1))))
        np.testing.assert_allclose(y, x - tau * nnls_projection(A, z), rtol=0.0,
                                   atol=1e-7 * tau * R)
        assert r <= 1e-7 * tau * R


def _wide_ties(A, rng, count):
    """Rows x at which three or more vectors of A attain max_i <a_i, x>, with
    the indices of those vectors; x = 0 ties them all."""
    m, d = A.shape
    rows, sets = [np.zeros(d)], [np.arange(m)]
    while len(rows) < count:
        S = rng.choice(m, size=int(rng.integers(3, min(m, d + 1) + 1)), replace=False)
        _, sv, Vt = np.linalg.svd(A[S[1:]] - A[S[0]])
        null = Vt[int(np.sum(sv > 1e-9)):]
        if null.shape[0] == 0:
            continue
        x = rng.normal(size=null.shape[0]) @ null
        dots = A @ x
        if dots[S].min() - np.delete(dots, S).max() > 1e-3:
            rows.append(x)
            sets.append(np.sort(S))
    return np.array(rows), sets


def _tie_cases():
    e = np.eye(3)
    return [
        pytest.param(np.repeat([[1.0], [-0.5], [2.0]], 3, axis=0),
                     np.array([[0.0], [1.0], [-1.0]]), id="1d"),
        pytest.param(np.array([[0.5], [1.0], [2.0]]), np.zeros((2, 1)),
                     id="1d-positive"),
        pytest.param(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 0.5],
                               [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.0]]),
                     id="2d-collinear"),
        pytest.param(np.vstack([e, -e.sum(axis=0) / 2.0, e[0] + e[1]]), None, id="3d"),
        pytest.param(np.random.default_rng(2).normal(size=(8, 4)), None, id="4d"),
    ]


@pytest.mark.parametrize("A, X", _tie_cases())
def test_wide_ties_are_one_masked_call(A, X, monkeypatch):
    import actionlab.convex as convex
    from actionlab.minnorm import min_norm_point

    f = MaxLinear(A)
    if X is None:
        X, sets = _wide_ties(A, np.random.default_rng(A.shape[1]), 25)
        refs = [min_norm_point(A[S]) for S in sets]
    else:
        active = f._actives(X)
        assert np.all(active.sum(axis=1) > 2)
        refs = [min_norm_point(A[row]) for row in active]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return min_norm_point(*args, **kwargs)

    monkeypatch.setattr(convex, "min_norm_point", counted)
    G = f.subgradient_many(X)
    assert len(calls) == 1
    for g, ref in zip(G, refs):
        np.testing.assert_allclose(g, ref, rtol=0.0, atol=1e-12)
        if A.shape[1] == 1:
            np.testing.assert_array_equal(g, ref)


def _face_projectors_per_row(A, tau, X, Y):
    """The K of envelope_derivatives_many for a d >= 3 max-linear function,
    one row at a time: the projector onto the directions a_j - a_0 of the
    face that q = Y/tau exposes, from one SVD per row."""
    k, d = X.shape
    Q = Y / tau
    qn = np.linalg.norm(Q, axis=1)
    outside = qn > ACTIVE_TOL * (1.0 + np.linalg.norm(X / tau, axis=1))
    P = np.zeros((k, d, d))
    P[~outside] = np.eye(d)
    tol = ACTIVE_TOL * (1.0 + np.abs(A).max())
    for i in np.where(outside)[0]:
        s = A @ (Q[i] / qn[i])
        face = A[s >= s.max() - tol]
        _, sv, Vt = np.linalg.svd(face[1:] - face[0], full_matrices=False)
        V = Vt[sv > tol]
        P[i] = V.T @ V
    return P / tau


@pytest.mark.parametrize("A", [
    pytest.param(np.random.default_rng(4).normal(size=(6, 3)), id="3d"),
    pytest.param(PERMUTATION_HULL, id="permutation")])
def test_maxlinear_face_projectors_match_per_row_svd(A):
    tau = 0.4
    rng = np.random.default_rng(A.shape[1])
    f = MaxLinear(A)
    d = A.shape[1]
    # generic rows, rows inside the hull, and rows far out along coordinate
    # directions, which expose faces of many vertices on the permutation hull
    far = tau * (A.mean(axis=0) + 50.0 * np.vstack([np.eye(d), -np.eye(d)]))
    X = np.vstack([tau * 2.0 * rng.normal(size=(150, d)),
                   tau * A[:5].mean(axis=0), far])
    Y, _ = f.prox_many(tau, X)
    K, _ = f.envelope_derivatives_many(tau, X, Y)
    np.testing.assert_allclose(K, _face_projectors_per_row(A, tau, X, Y),
                               rtol=0.0, atol=1e-12)
    ranks = np.round(np.trace(K, axis1=1, axis2=2) * tau).astype(int)
    assert len(set(ranks.tolist())) >= 3

    def grad_env(P):
        return (P - f.prox_many(tau, P)[0]) / tau

    # K is the Jacobian of the envelope gradient wherever that is
    # differentiable: where the one-sided differences agree
    h = 1e-6
    g0 = grad_env(X)
    smooth = np.ones(X.shape[0], dtype=bool)
    fd = np.empty_like(K)
    for j in range(d):
        step = np.zeros_like(X)
        step[:, j] = h
        fwd = (grad_env(X + step) - g0) / h
        bwd = (g0 - grad_env(X - step)) / h
        smooth &= np.abs(fwd - bwd).max(axis=1) <= 1e-5 / tau
        fd[:, :, j] = 0.5 * (fwd + bwd)
    assert smooth.mean() >= 0.8
    np.testing.assert_allclose(K[smooth], fd[smooth], rtol=0.0, atol=1e-5 / tau)


@pytest.mark.parametrize("m", range(1, 21))
def test_row_reduce_is_bit_equal_to_the_row_axis_reduction(m):
    # max, min and logical ops are exact in any order; numpy sums fewer than
    # 8 terms left to right, so the transposed sum agrees there, and longer
    # sums keep numpy's own pairwise order
    rng = np.random.default_rng(m)
    S = rng.normal(size=(257, m)) * rng.choice([1e-8, 1.0, 1e8], size=(257, m))
    for ufunc in (np.maximum, np.minimum, np.add):
        reduced = _row_reduce(ufunc, S)
        assert reduced.tobytes() == ufunc.reduce(S, axis=1).tobytes(), ufunc
    B = S > -0.5
    assert np.array_equal(_row_reduce(np.logical_and, B), B.all(axis=1))
    assert np.array_equal(_row_reduce(np.add, B), B.sum(axis=1))


def test_softmax_of_the_permutation_hull_matches_the_row_softmax():
    # the 120 weights of a column are summed in order, not pairwise as numpy
    # sums a row: they agree to rounding, weights and gradient alike
    A = PERMUTATION_HULL
    f = LogSumExp(A, 0.08)
    X = np.random.default_rng(0).normal(size=(64, A.shape[1]))
    s = X @ A.T / 0.08
    w = np.exp(s - s.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    W, g = f._softmax(X.T)
    np.testing.assert_allclose(W.T, w, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(g.T, w @ A, rtol=1e-13, atol=1e-15)


def test_all_live_newton_rows_match_gathered_rows(monkeypatch):
    """The rows of a batch that are all live are bit-equal to the same rows
    of a batch with one extra row started at its own resolvent, which never
    goes live, so the Newton iterations work on a gathered subset."""
    f = LogSumExp(TRIANGLE, 1.0)
    tau = 0.5
    X = 2.0 * np.random.default_rng(1).normal(size=(300, 2))
    extra = np.array([[0.3, -1.2]])
    y_extra, res_extra = f.prox_many(tau, extra)
    assert res_extra[0] <= 1e-11 * (1.0 + np.linalg.norm(extra))
    hessians = []
    hessian = LogSumExp._hessian

    def counting(self, W, g):
        hessians.append(W.shape[1])
        return hessian(self, W, g)

    monkeypatch.setattr(LogSumExp, "_hessian", counting)
    Y, res = f.prox_many(tau, X)
    assert hessians[0] == X.shape[0]
    hessians.clear()
    # the cold start of a smoothed max is the max-linear resolvent
    start = np.vstack([MaxLinear(TRIANGLE).prox_many(tau, X)[0], y_extra])
    Y2, res2 = f.prox_many(tau, np.vstack([X, extra]), start=start)
    assert hessians[0] == X.shape[0]
    assert Y2[:-1].tobytes() == Y.tobytes() and res2[:-1].tobytes() == res.tobytes()


def test_permutation_table_starts_members_at_the_limit(monkeypatch):
    """The members of a smoothed-max table start Newton from the limit's
    resolvents, which is their own cold start, so the one hull projection is
    the limit's and every member row is bit-equal to a cold prox_many."""
    import actionlab.convex as convex
    d = PERMUTATION_HULL.shape[1]
    family = family_logsumexp_to_max(PERMUTATION_HULL, (0.5, 0.2, 0.08, 0.03),
                                     np.zeros(d), np.linspace(-1.0, 1.0, d))
    tau = 0.5
    probes = np.random.default_rng(3).normal(size=(3, d))
    calls = []
    projection = convex._hull_projection

    def counting(f, Z):
        calls.append(Z.shape[0])
        return projection(f, Z)

    monkeypatch.setattr(convex, "_hull_projection", counting)
    rep = resolvent_convergence_table(family, tau, probes)
    assert calls == [3]
    monkeypatch.undo()
    limit = family.limit.function.prox_many(tau, probes)[0]
    cold = [np.linalg.norm(mem.function.prox_many(tau, probes)[0] - limit, axis=1)
            for mem in family.members]
    assert [row["gap"] for row in rep.rows] == np.concatenate(cold).tolist()


def test_a_row_kept_backtracking_keeps_every_row_in_place(monkeypatch):
    """A row whose line search ends without sufficient decrease stays live,
    moved to the end of the live list.  With every row still live, the next
    iteration gathers in that order instead of working in row order, so each
    row is bit-equal to the same row of a batch that always gathers and
    close to the row solved alone."""
    import builtins
    import actionlab.convex as convex
    f = LogSumExp(TRIANGLE, 0.01)
    tau = 0.5
    X = np.array([[-0.9022755659889229, 0.000888625001921776],
                  [-0.07407088917588163, 0.46835463422376244]])
    start = np.array([[-0.9661341507626876, -0.014776178593084006],
                      [-1.0651666714040133, 0.4900584732834038]])
    extra = np.array([[0.3, -1.2]])
    y_extra = f.prox_many(tau, extra)[0]
    alone = np.vstack([f.prox_many(tau, X[i:i + 1])[0] for i in range(2)])
    calls, hessians = [], []
    hessian = LogSumExp._hessian

    def first_line_search_gives_up(*args):
        # a solve's first range() is its Newton loop, the second its first
        # line search: every row failing the full step stays backtracking
        calls.append(args)
        return builtins.range(0) if len(calls) == 2 else builtins.range(*args)

    def counting(self, W, g):
        hessians.append(W.shape[1])
        return hessian(self, W, g)

    monkeypatch.setattr(convex, "range", first_line_search_gives_up, raising=False)
    monkeypatch.setattr(LogSumExp, "_hessian", counting)
    Y, res = f.prox_many(tau, X, start=start)
    assert hessians[:2] == [2, 2]
    calls.clear()
    Y2, res2 = f.prox_many(tau, np.vstack([X, extra]), start=np.vstack([start, y_extra]))
    assert Y2[:-1].tobytes() == Y.tobytes() and res2[:-1].tobytes() == res.tobytes()
    np.testing.assert_allclose(Y, alone, rtol=0.0, atol=1e-10)


def _row_major_lse(f, tau, X, start=None, first_halvings=60):
    """The row-major smoothed-max kernels the component-major ones replaced,
    kept as their reference: the resolvents and residuals of prox_many, K
    and C at them, and the first Newton iteration's row counts: those that
    took the full step, those that started halving, and those the line
    search, capped at first_halvings, left backtracking."""
    A, eps = f.vectors, f.epsilon
    k, d = X.shape
    t = np.full((k, 1), tau) if np.ndim(tau) == 0 else np.asarray(tau)[:, None]

    def weights(P):
        s = P @ A.T / eps
        w = np.exp(s - s.max(axis=1, keepdims=True))
        return w / w.sum(axis=1, keepdims=True)

    def hessian(W):
        G = W @ A
        return (np.einsum("km,mi,mj->kij", W, A, A) - G[:, :, None] * G[:, None, :]) / eps

    def norms(R):
        return np.linalg.norm(R, axis=1)

    # the cold start is the max-linear resolvent
    Y = MaxLinear(A).prox_many(t[:, 0], X)[0] if start is None else start.copy()
    W = weights(Y)
    R = Y + t * (W @ A) - X
    res = norms(R)
    target = 1e-11 * (1.0 + norms(X))
    live = np.flatnonzero(res > target)
    for it in range(60):
        if live.size == 0:
            break
        y, x, rn, tl, Wl, Rl = (a[live] for a in (Y, X, res, t, W, R))
        step = np.linalg.solve(np.eye(d) + tl[:, :, None] * hessian(Wl), -Rl[:, :, None])[..., 0]
        snorm = norms(step)
        floor = 1e-15 * (1.0 + norms(y))
        alpha = np.ones(live.size)
        trial = y + step
        Wt = weights(trial)
        rt = trial + tl * (Wt @ A) - x
        rtn = norms(rt)
        ok = rtn <= (1.0 - 1e-4) * rn
        back = np.flatnonzero(~ok & (0.5 * snorm > floor))
        if it == 0:
            first = [int((ok & (snorm > floor)).sum()), back.size]
        for _ in range(first_halvings if it == 0 else 60):
            if back.size == 0:
                break
            alpha[back] *= 0.5
            trial[back] = y[back] + alpha[back, None] * step[back]
            Wt[back] = weights(trial[back])
            rt[back] = trial[back] + tl[back] * (Wt[back] @ A) - x[back]
            rtn[back] = norms(rt[back])
            ok[back] = rtn[back] <= (1.0 - 1e-4 * alpha[back]) * rn[back]
            back = back[~ok[back] & (0.5 * alpha[back] * snorm[back] > floor[back])]
        if it == 0:
            first.append(back.size)
        ok &= snorm > floor
        acc = live[ok]
        Y[acc], W[acc], R[acc], res[acc] = trial[ok], Wt[ok], rt[ok], rtn[ok]
        live = np.concatenate([acc[rtn[ok] > target[acc]], live[back]])
    assert live.size == 0
    H = hessian(W)
    M = np.eye(d) + t[:, :, None] * H
    U = (A - (W @ A)[:, None, :]) @ np.linalg.inv(M)
    c = W * (U @ ((X - Y) / t)[:, :, None])[..., 0] / eps**2
    return Y, res, np.linalg.solve(M, H), U.transpose(0, 2, 1) @ (c[:, :, None] * U), first


@pytest.mark.parametrize("started, gives_up", [(False, False), (True, False), (True, True)],
                         ids=["cold", "started", "started_gives_up"])
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar_tau", "row_taus"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_component_major_lse_kernels_match_the_row_major_ones(d, per_row, started,
                                                               gives_up, monkeypatch):
    """prox_many and envelope_derivatives_many work on (d, k) columns; Y, K
    and C agree with the row-major reference within 1e-13 relative plus
    1e-13 absolute, also where the first line search gives up on its rows
    (as after 60 failed halvings), and a lone row is bit-equal to the same
    row inside the batch.

    A cold start's first Newton iteration takes every row's full step; a
    perturbed start's mixes full steps and halvings.  At eps = 1e-7 rows on
    a kink also stop at the rounding floor above their target residual.
    There I + tau grad^2 f has condition number near 1e7, so the two routes
    to K part by more than 1e-13 and only Y is held to the reference."""
    import builtins
    import actionlab.convex as convex
    A = SMOOTHED_MAX_3D if d == 3 else SMOOTHED_MAX_VECTORS[d]
    rng = np.random.default_rng([d, per_row, started])
    X = 2.0 * rng.normal(size=(60, d))
    tau = rng.uniform(0.1, 1.0, size=60) if per_row else 0.5
    noise = 0.3 * rng.normal(size=X.shape) if started else None
    fs = (LogSumExp(A, 0.05), LogSumExp(A, 1e-7))
    starts = [f.prox_many(tau, X)[0] + noise if started else None for f in fs]
    target = 1e-11 * (1.0 + np.linalg.norm(X, axis=1))
    calls = []

    def first_line_search_gives_up(*args):
        calls.append(args)
        return builtins.range(0) if gives_up and len(calls) == 2 else builtins.range(*args)

    def prox(f, tau, X, start):
        calls.clear()
        return f.prox_many(tau, X, start=start)

    monkeypatch.setattr(convex, "range", first_line_search_gives_up, raising=False)
    for f, start in zip(fs, starts):
        sharp = f.epsilon < 0.05
        Y, res = prox(f, tau, X, start)
        K, C = f.envelope_derivatives_many(tau, X, Y)
        Y_ref, _, K_ref, C_ref, (full, halved, kept) = _row_major_lse(
            f, tau, X, start, 0 if gives_up else 60)
        assert full > 0 and (halved > 0) == started and (kept > 0) == gives_up
        floored = np.flatnonzero(res > target)
        assert (floored.size > 0) == sharp
        for got, want in ((Y, Y_ref), (K, K_ref), (C, C_ref))[:1 if sharp else 3]:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
        assert Y.shape == X.shape and K.shape == C.shape == (60, d, d)
        for i in sorted({*range(0, 60, 7), *floored[:2]}):
            one = slice(i, i + 1)
            t = tau[one] if per_row else tau
            y, r = prox(f, t, X[one], None if start is None else start[one])
            k, c = f.envelope_derivatives_many(t, X[one], Y[one])
            assert y.tobytes() == Y[one].tobytes() and r.tobytes() == res[one].tobytes()
            assert k.tobytes() == K[one].tobytes() and c.tobytes() == C[one].tobytes()
