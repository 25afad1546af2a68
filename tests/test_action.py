import math
import sys

import numpy as np
import pytest

from actionlab.action import (Path, _midpoint_actions, alt_action,
                              coarsened_interpolation_bound,
                              discrete_action, dubois_reymond_residual,
                              interpolation_bound, interpolation_path,
                              recovery_action_bound, recovery_path,
                              recovery_tolerance, upper_gradient_quadrature_bound,
                              upper_gradient_residual)
from actionlab.convex import (Indicator, LogSumExp, MaxLinear, Quadratic,
                              SquaredDistance, min_norm_subgradient, prox, slope)
from actionlab.errors import ActionLabError, ConfigError, OutsideDomainError
from actionlab.experiments import (gamma_limsup_experiment,
                                   gamma_value_experiment,
                                   resolvent_convergence_table,
                                   slope_semicontinuity_table)
from actionlab.families import (MoscoFamily, eventually_decreasing,
                                family_logsumexp_to_max,
                                family_penalty_to_indicator)
from actionlab.minimize import MinimizeConfig, closed_form_value, minimize_action
from actionlab.minnorm import hull_projection, min_norm_point_with_gap
from actionlab.oracle import GridSpec, grid_oracle, speed_quantization_bias
from actionlab.sets import Ball, Halfspace, project
from actionlab.verify import verify_suite

HALF_SQ = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
ABS = MaxLinear(np.array([[1.0], [-1.0]]))
LSE_FAMILY = family_logsumexp_to_max([[1.0], [-1.0]], (0.5, 0.2), [-1.0], [1.0])
GRID = GridSpec([0.0], [1.0], (8,))


@pytest.mark.parametrize("call", [
    lambda: grid_oracle(HALF_SQ, [0.0], [1.0], 1.0, GridSpec([0.0], [1.0], (8,)),
                        4, reach=1.5),
    lambda: Path.straight([0.0], [1.0], intervals=-1),
    lambda: interpolation_path(HALF_SQ, 0.5, 1.0, [0.0], [1.0], M="x"),
    lambda: closed_form_value("free", delta=1.0),
    lambda: project(Ball([0.0, 0.0], 1.0), [1.0, 2.0, 3.0]),
    lambda: prox(HALF_SQ, 0.5, "a"),
    lambda: Path([0.0, 1.0], [["a"], [1.0]]),
    lambda: HALF_SQ.prox_many(0.5, [["a"]]),
    lambda: minimize_action(HALF_SQ, [0.0], [1.0], "x"),
    lambda: interpolation_path(HALF_SQ, 0.5, "x", [0.0], [1.0], 8),
    lambda: interpolation_bound(HALF_SQ, 0.5, "x", [0.0], [1.0]),
    lambda: grid_oracle(HALF_SQ, [0.0], [1.0], "x", GRID, 4),
    lambda: speed_quantization_bias(GRID, 4, "x"),
    lambda: gamma_value_experiment(LSE_FAMILY, "x"),
    lambda: LogSumExp([[1.0], [-1.0]], "x"),
    lambda: SquaredDistance(Ball([0.0], 1.0), "x"),
    lambda: Ball([0.0], "x"),
    lambda: Ball("x", 1.0),
    lambda: Halfspace([1.0], "x"),
    lambda: Quadratic([[1.0]], [0.0], "x"),
    lambda: Quadratic("x", [0.0]),
    lambda: GridSpec([0.0], [1.0], ("x",)),
    lambda: GridSpec("x", [1.0], (8,)),
    lambda: verify_suite(scopes="gamma", seed="x"),
    lambda: verify_suite(scopes="gamma", samples="x"),
    lambda: MoscoFamily(LSE_FAMILY.members, LSE_FAMILY.limit, "x", 1.0),
    lambda: slope_semicontinuity_table(LSE_FAMILY, [[0.0]], margin="x"),
    lambda: family_logsumexp_to_max([[1.0], [-1.0]], ["x"], [-1.0], [1.0]),
    lambda: family_penalty_to_indicator(Ball([0.0], 1.0), ["x"], [0.0], [0.5]),
    lambda: gamma_limsup_experiment(
        LSE_FAMILY, Path.straight([-1.0], [1.0], intervals=4), ["x"]),
    lambda: Path.straight("a", "b"),
    lambda: hull_projection([[1, 0]], "x"),
    lambda: eventually_decreasing(["x", 1]),
    lambda: MaxLinear([[1], [1, 2]]),
    lambda: Quadratic([[1.0]], [0.0], math.nan),
    lambda: grid_oracle(HALF_SQ, [0.0], [1.0], 1.0, GRID, 4, node_budget="x"),
    lambda: min_norm_point_with_gap([[1.0, 0.0], [0.0, 1.0]], max_iter="x"),
    lambda: recovery_action_bound("x", 0.5, 0.0, 1.0),
    lambda: recovery_action_bound(math.nan, 0.5, 0.0, 1.0),
    lambda: recovery_tolerance(1.0, "x", 0.0, 1.0),
    lambda: recovery_tolerance(1.0, 0.5, math.nan, 1.0),
    lambda: resolvent_convergence_table(LSE_FAMILY, 0.5, 5),
    lambda: slope_semicontinuity_table(LSE_FAMILY, 5),
    lambda: verify_suite(scopes=5),
    lambda: verify_suite(scopes=()),     # would run no check and report ok
    lambda: verify_suite(scopes=[]),
    lambda: verify_suite(scopes="gamma", extra_functions=5),
    lambda: MoscoFamily(5, LSE_FAMILY.limit, 0.0, 1.0),
    lambda: discrete_action(HALF_SQ, "x"),
    lambda: alt_action(HALF_SQ, "x"),
    lambda: upper_gradient_residual(HALF_SQ, "x"),
    lambda: dubois_reymond_residual(HALF_SQ, "x"),
    lambda: recovery_path(HALF_SQ, 0.5, "x", [0.0], [1.0]),
    lambda: gamma_limsup_experiment(LSE_FAMILY, "x", [0.5]),
    lambda: grid_oracle(HALF_SQ, [0.0], [1.0], 1.0, GRID, 4, obstacle="x"),
    lambda: minimize_action(HALF_SQ, [0.0], [1.0], 1.0, config={"N": 8}),
    lambda: gamma_value_experiment(LSE_FAMILY, 1.0, config="x"),
    lambda: verify_suite("convex", samples=1, extra_functions=(3,)),
    lambda: minimize_action(Quadratic([[-1.0]], [0.0]), [0.0], [1.0], 5e-324,
                            MinimizeConfig(N=4)),
    lambda: minimize_action(Quadratic([[-1.0]], [0.0]), [0.0], [1.0], 1e-310,
                            MinimizeConfig(N=4)),
    lambda: minimize_action(LogSumExp([[1.0], [-1.0]], 0.1), [0.0], [1.0],
                            4 * sys.float_info.min, MinimizeConfig(N=4)),
], ids=["grid_oracle-reach", "straight-intervals", "interpolation_path-M",
        "closed_form_value-missing", "project-dimension", "prox-non-number",
        "path-non-number", "prox_many-non-number",
        "minimize_action-delta", "interpolation_path-delta",
        "interpolation_bound-delta", "grid_oracle-delta",
        "speed_quantization_bias-delta", "gamma_value_experiment-delta",
        "log_sum_exp-epsilon", "squared_distance-weight", "ball-radius",
        "ball-center", "halfspace-offset", "quadratic-c", "quadratic-Q",
        "grid-cells", "grid-lo", "verify_suite-seed", "verify_suite-samples",
        "family-uniform_lambda", "slope_semicontinuity_table-margin",
        "family-epsilons", "family-penalties", "limsup-taus",
        "straight-endpoints", "hull_projection-target",
        "eventually_decreasing-values", "max_linear-ragged", "quadratic-c-nan",
        "grid_oracle-node_budget", "min_norm_point-max_iter",
        "recovery_action_bound-action", "recovery_action_bound-nan",
        "recovery_tolerance-tau", "recovery_tolerance-nan",
        "resolvent_table-probes", "slope_semicontinuity_table-probes",
        "verify_suite-scopes", "verify_suite-empty_scopes",
        "verify_suite-empty_scope_list", "verify_suite-extra_functions", "family-members",
        "discrete_action-path", "alt_action-path", "upper_gradient_residual-path",
        "dubois_reymond_residual-path", "recovery_path-gamma", "limsup-gamma",
        "grid_oracle-obstacle", "minimize_action-config",
        "gamma_value_experiment-config", "verify_suite-extra_function_item",
        "minimize_action-delta_5e-324", "minimize_action-delta_1e-310",
        "minimize_action-lse_subnormal_tau"])
def test_public_entry_points_raise_package_errors(call):
    with pytest.raises(ActionLabError):
        call()


def test_path_validation():
    with pytest.raises(ConfigError):
        Path([0.0, 0.0, 1.0], [[0.0], [0.5], [1.0]])
    with pytest.raises(ConfigError):
        Path([0.0], [[0.0]])
    with pytest.raises(ConfigError):
        Path([0.0, 1.0], [[0.0], [np.inf]])


def _refined(p: Path) -> Path:
    """The same piecewise-linear curve with every chord midpoint inserted."""
    t = np.empty(2 * p.intervals + 1)
    X = np.empty((t.size, p.dim))
    t[0::2] = p.times
    t[1::2] = 0.5 * (p.times[:-1] + p.times[1:])
    X[0::2] = p.nodes
    X[1::2] = p.chord_midpoints
    return Path(t, X)


def test_path_refined_same_curve():
    p = Path([0.0, 0.4, 1.0], [[0.0], [2.0], [1.0]])
    q = _refined(p)
    assert q.intervals == 2 * p.intervals
    a = discrete_action(HALF_SQ, p).kinetic
    b = discrete_action(HALF_SQ, q).kinetic
    assert b == pytest.approx(a, rel=1e-12)


def test_straight_path_action_free():
    zero = Quadratic(np.zeros((1, 1)), np.zeros(1), 0.0)
    p = Path.straight([0.0], [1.0], intervals=8)
    b = discrete_action(zero, p)
    assert b.kinetic == pytest.approx(1.0, abs=1e-12)
    assert b.slope_term == pytest.approx(0.0, abs=1e-15)


def test_gradient_flow_action_value():
    """gamma(t) = e^t on [0, 1] under x^2/2: action = e^2 - 1, alt ~ 0."""
    n = 512
    t = np.linspace(0.0, 1.0, n + 1)
    p = Path(t, np.exp(t)[:, None])
    total = discrete_action(HALF_SQ, p, rule="node-trapezoid").total
    assert total == pytest.approx(math.exp(2.0) - 1.0, abs=1e-3)
    assert abs(alt_action(HALF_SQ, p)) <= 1e-5


def test_alt_action_constant_path_counts_gradient():
    t = np.linspace(0.0, 1.0, 33)
    p = Path(t, np.ones((33, 1)))
    # stationary path at x=1: integrand |0 - grad f|^2 = 1
    assert alt_action(HALF_SQ, p) == pytest.approx(1.0, abs=1e-12)


def test_null_lagrangian_identity_exact_for_quadratic():
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(size=9))
    t = np.concatenate([[0.0], t, [1.0]])
    nodes = rng.normal(size=(t.size, 1))
    p = Path(t, nodes)
    total = discrete_action(HALF_SQ, p).total
    alt = alt_action(HALF_SQ, p)
    boundary = 2.0 * (0.5 * nodes[-1, 0] ** 2) - 2.0 * (0.5 * nodes[0, 0] ** 2)
    # exact for quadratics under the midpoint rule: slope^2 = |grad|^2 at midpoints
    assert alt == pytest.approx(total - boundary, rel=1e-10, abs=1e-10)


def test_null_lagrangian_quadrature_order():
    """Identity error decays like 1/N^2 for a smooth non-quadratic function."""
    from actionlab.convex import LogSumExp
    f = LogSumExp(np.array([[1.0], [-0.7]]), 0.4)
    errs = []
    for n in (16, 32, 64, 128):
        t = np.linspace(0.0, 1.0, n + 1)
        nodes = np.sin(1.7 * t)[:, None]
        p = Path(t, nodes)
        total = discrete_action(f, p).total
        alt = alt_action(f, p)
        boundary = 2.0 * f.value(nodes[-1]) - 2.0 * f.value(nodes[0])
        errs.append(abs(alt - (total - boundary)))
    order = np.polyfit(np.log([16, 32, 64, 128]), np.log(errs), 1)[0]
    assert -order >= 1.8


def test_upper_gradient_residual_nonnegative_modulo_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = np.linspace(0.0, 1.0, 49)
        nodes = np.cumsum(rng.normal(size=(49, 1)) * 0.1, axis=0)
        p = Path(t, nodes)
        res = upper_gradient_residual(HALF_SQ, p)
        assert res >= -upper_gradient_quadrature_bound(HALF_SQ, p)


def _upper_gradient_reference(f, p: Path) -> tuple[float, float]:
    """Residual and quadrature bound from their definitions: midpoint-rule
    integrals over p and over its refinement, plus the per-chord
    trapezoid-minus-midpoint gap."""
    def integral(q):
        seg = np.linalg.norm(np.diff(q.nodes, axis=0), axis=1)
        return float(np.where(seg > 0.0, f.slope_many(q.chord_midpoints) * seg,
                              0.0).sum())

    coarse, fine = integral(p), integral(_refined(p))
    s_nodes, s_mid = f.slope_many(p.nodes), f.slope_many(p.chord_midpoints)
    if not (np.isfinite(fine) and np.all(np.isfinite(s_nodes))
            and np.all(np.isfinite(s_mid))):
        return np.nan, np.inf
    seg = np.linalg.norm(np.diff(p.nodes, axis=0), axis=1)
    gap = np.maximum(0.5 * (s_nodes[:-1] + s_nodes[1:]) - s_mid, 0.0)
    bound = (float((gap * seg).sum()) + 2.0 * abs(fine - coarse)
             + 1e-9 * (1.0 + abs(coarse)))
    return coarse - abs(f.value(p.nodes[-1]) - f.value(p.nodes[0])), bound


@pytest.mark.parametrize("f", [
    HALF_SQ,
    Quadratic(np.diag([2.0, 0.5, 1.0]), np.array([0.1, 0.0, -0.3]), 0.2),
    ABS,
    MaxLinear(np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]])),
    LogSumExp(np.array([[1.0, 0.2], [-0.4, 1.0], [0.0, -1.0]]), 0.3),
    SquaredDistance(Ball(np.zeros(2), 1.0), 1.5),
    Indicator(Ball(np.zeros(2), 1.0)),
], ids=lambda f: f"{type(f).__name__}-{f.dim}d")
def test_upper_gradient_wrappers_match_refined_definition(f):
    rng = np.random.default_rng(4)
    for segments in (1, 7, 48):
        nodes = np.cumsum(rng.normal(size=(segments + 1, f.dim)) * 0.3, axis=0)
        if isinstance(f, Indicator):
            nodes = f.region.project_many(nodes)
        nodes[segments // 2] = nodes[segments // 2 - 1 if segments > 1 else 0]
        p = Path(np.linspace(0.0, 1.0, segments + 1), nodes)
        residual, bound = _upper_gradient_reference(f, p)
        assert upper_gradient_quadrature_bound(f, p) == pytest.approx(bound, rel=1e-12)
        assert upper_gradient_residual(f, p) == pytest.approx(
            residual, rel=1e-12, abs=1e-12 * bound)


def test_upper_gradient_bound_is_infinite_off_the_domain():
    f = Indicator(Ball(np.zeros(1), 1.0))
    p = Path([0.0, 0.5, 1.0], [[0.0], [2.0], [0.5]])
    assert upper_gradient_quadrature_bound(f, p) == np.inf
    assert _upper_gradient_reference(f, p)[1] == np.inf


def test_upper_gradient_requires_finite_endpoints():
    f = Indicator(Ball(np.zeros(1), 1.0))
    p = Path([0.0, 1.0], [[0.0], [2.0]])
    with pytest.raises(OutsideDomainError):
        upper_gradient_residual(f, p)


def test_dubois_reymond_small_for_conserved_path():
    # gamma(t) = e^t: |gamma'|^2 - |grad f|^2 = 0 pointwise for x^2/2,
    # so only the O(dt^2) discretization survives and halving dt quarters it
    residuals = []
    for n in (128, 256, 512):
        t = np.linspace(0.0, 1.0, n + 1)
        p = Path(t, np.exp(t)[:, None])
        residuals.append(dubois_reymond_residual(HALF_SQ, p))
    assert residuals[-1] <= 1e-4
    assert residuals[2] < residuals[1] < residuals[0]
    assert residuals[0] / residuals[2] > 8.0


def test_dubois_reymond_positive_for_crooked_path():
    t = np.linspace(0.0, 1.0, 9)
    nodes = np.array([0.0, 0.5, 0.2, 0.9, 0.4, 1.1, 0.6, 1.3, 1.0])[:, None]
    p = Path(t, nodes)
    assert dubois_reymond_residual(HALF_SQ, p) > 0.1


def test_interpolation_path_closed_form():
    """For x^2/2, tau=delta=0.5: gamma(t) = l(t)/(1+tau), endpoints 0 and 1."""
    tau = 0.5
    p = interpolation_path(HALF_SQ, tau, tau, [0.0], [1.0], 16)
    # tilted line runs from 0 to xd + tau*grad = 1.5; resolvent divides by 1.5
    s = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(p.nodes[:, 0], s * 1.5 / 1.5, atol=1e-12)
    assert p.times[-1] == pytest.approx(0.5)


def test_interpolation_path_ends_at_the_tilted_endpoint_resolvent():
    # p0 + 1 * (pd - p0) rounds away from pd for these values
    tau, xd = 0.5, np.array([1.1])
    p = interpolation_path(HALF_SQ, tau, 1.0, [0.1], xd, 8)
    end = prox(HALF_SQ, tau, xd + tau * min_norm_subgradient(HALF_SQ, xd))
    np.testing.assert_array_equal(p.nodes[-1], end.resolvent_point)


@pytest.mark.parametrize("f, x0, xd", [
    (Quadratic(np.diag([2.0, 0.5, 1.0]), np.array([0.1, 0.0, -0.3]), 0.2),
     [0.3, -1.0, 0.5], [-0.7, 0.8, 1.2]),
    (LogSumExp(np.array([[1.0], [-1.0], [0.3]]), 0.08), [-1.2], [0.9]),
    (LogSumExp(np.array([[1.0, 0.2], [-0.4, 1.0], [0.0, -1.0]]), 0.3),
     [-1.0, 0.4], [1.3, -0.6]),
    (MaxLinear(np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]])),
     [-1.0, 0.0], [1.0, 0.5]),
    (MaxLinear(np.array([[1.0, 0.0, 0.2], [0.0, 1.0, -0.3], [-0.5, -0.5, 0.1],
                         [0.1, -0.2, -1.0]])), [0.4, -0.9, 0.3], [-0.8, 1.1, 0.6]),
    (SquaredDistance(Ball(np.array([0.2, -0.1]), 1.0), 1.5), [2.0, 0.3], [-1.4, 1.6]),
    (Indicator(Ball(np.zeros(2), 1.5)), [1.0, -0.5], [-0.3, 1.2]),
], ids=["quadratic-3d", "log_sum_exp-1d", "log_sum_exp-2d", "max_linear-2d",
        "max_linear-3d", "squared_distance-2d", "indicator-2d"])
def test_coarse_interpolation_path_is_the_fine_paths_even_nodes(f, x0, xd):
    # the verify checks read the 256-chord path off the 512-chord batch
    coarse = interpolation_path(f, 0.4, 0.7, x0, xd, 256)
    fine = interpolation_path(f, 0.4, 0.7, x0, xd, 512)
    np.testing.assert_array_equal(coarse.times, fine.times[::2])
    np.testing.assert_array_equal(coarse.nodes, fine.nodes[::2])


@pytest.mark.parametrize("f", [
    HALF_SQ,
    LogSumExp(np.array([[1.0, 0.2], [-0.4, 1.0], [0.0, -1.0]]), 0.3),
    MaxLinear(np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]])),
], ids=lambda f: f"{type(f).__name__}-{f.dim}d")
def test_discrete_action_is_the_batched_action_row_by_row(f):
    rng = np.random.default_rng(8)
    times = np.sort(rng.uniform(size=(5, 17)), axis=1)
    nodes = rng.normal(size=(5, 17, f.dim))
    kinetic, slope_term = _midpoint_actions(f, times, nodes)
    for i in range(5):
        b = discrete_action(f, Path(times[i], nodes[i]))
        # batch composition moves the slopes by rounding only
        assert b.kinetic == pytest.approx(kinetic[i], rel=1e-14)
        assert b.slope_term == pytest.approx(slope_term[i], rel=1e-14)


def test_interpolation_bound_worked_value():
    b = interpolation_bound(HALF_SQ, 0.5, 0.5, [0.0], [1.0])
    assert b == pytest.approx(130.0, abs=1e-9)


def test_coarsened_bound_worked_value():
    b = coarsened_interpolation_bound(HALF_SQ, 0.5, [0.0], [1.0])
    assert b == pytest.approx(209.0, abs=1e-9)


def test_coarsened_dominates_sharp_at_matched_horizon():
    rng = np.random.default_rng(2)
    for _ in range(30):
        tau = float(np.exp(rng.uniform(np.log(0.1), np.log(1.0))))
        x0 = rng.normal(size=1)
        xd = rng.normal(size=1)
        sharp = interpolation_bound(ABS, tau, tau, x0, xd)
        coarse = coarsened_interpolation_bound(ABS, tau, x0, xd)
        assert coarse >= sharp - 1e-9 * (1.0 + abs(sharp))


def test_interpolation_action_below_bound():
    for tau, delta in [(0.5, 0.5), (0.3, 0.8), (0.7, 0.2)]:
        p = interpolation_path(HALF_SQ, tau, delta, [0.0], [1.0], 256)
        total = discrete_action(HALF_SQ, p).total
        assert total <= interpolation_bound(HALF_SQ, tau, delta, [0.0], [1.0])


def test_interpolation_bound_requires_envelope_lipschitz():
    f = Quadratic(np.array([[-0.8]]), np.zeros(1), 0.0)
    # 1 + tau*lam < 1/2 violates the envelope-Lipschitz precondition
    with pytest.raises(Exception):
        interpolation_bound(f, 1.0, 1.0, [0.0], [1.0])


def test_recovery_path_quadratic():
    tau = 0.2
    t = np.linspace(0.0, 1.0, 65)
    gamma = Path(t, (1.0 + t)[:, None])
    rec = recovery_path(HALF_SQ, tau, gamma, [1.05], [2.1])
    assert rec.times[0] == pytest.approx(0.0)
    assert rec.times[-1] == pytest.approx(1.0)
    np.testing.assert_array_equal(rec.nodes[0], [1.05])
    np.testing.assert_array_equal(rec.nodes[-1], [2.1])
    limit_action = discrete_action(HALF_SQ, gamma).total
    S = max(slope(HALF_SQ, [1.05]), slope(HALF_SQ, [2.1]))
    bound = recovery_action_bound(limit_action, tau, HALF_SQ.lam, S)
    tol = recovery_tolerance(limit_action, tau, HALF_SQ.lam, S)
    assert discrete_action(HALF_SQ, rec).total <= bound + tol


def test_recovery_path_zero_function_is_near_gamma():
    zero = Quadratic(np.zeros((1, 1)), np.zeros(1), 0.0)
    t = np.linspace(0.0, 1.0, 33)
    gamma = Path(t, t[:, None])
    rec = recovery_path(zero, 0.25, gamma, [0.0], [1.0])
    # J_tau is the identity, so the core is gamma itself
    a = discrete_action(zero, rec).total
    limit = discrete_action(zero, gamma).total
    assert a <= (1.0 + 2.0 * 0.25) * limit + 1e-9


class _DriftingProx(Quadratic):
    """Quadratic whose prox output is shifted off the true resolvent."""

    def prox_many(self, tau, X):
        Y, res = super().prox_many(tau, X)
        return Y + 1e-4, res


def test_recovery_junction_audit_fires():
    bad = _DriftingProx(np.array([[1.0]]), np.zeros(1), 0.0)
    t = np.linspace(0.0, 1.0, 17)
    gamma = Path(t, t[:, None])
    with pytest.raises(ConfigError, match="junction"):
        recovery_path(bad, 0.2, gamma, [0.0], [1.0], M=4)


def test_recovery_path_resolves_core_and_both_patches_in_two_calls(monkeypatch):
    calls = []
    prox_many = Quadratic.prox_many

    def counting(self, tau, X, start=None):
        calls.append(X.shape[0])
        return prox_many(self, tau, X, start)

    monkeypatch.setattr(Quadratic, "prox_many", counting)
    t = np.linspace(0.0, 1.0, 33)
    recovery_path(HALF_SQ, 0.25, Path(t, (1.0 + t)[:, None]), [1.05], [2.1], M=8)
    assert calls == [33, 2 * 9]


def test_recovery_rejects_zero_patch_density():
    t = np.linspace(0.0, 1.0, 9)
    gamma = Path(t, t[:, None])
    with pytest.raises(ConfigError):
        recovery_path(HALF_SQ, 0.2, gamma, [0.0], [1.0], M=0)


def test_recovery_requires_unit_interval():
    gamma = Path([0.0, 2.0], [[0.0], [1.0]])
    with pytest.raises(ConfigError):
        recovery_path(HALF_SQ, 0.2, gamma, [0.0], [1.0])
