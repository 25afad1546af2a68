import numpy as np
import pytest

from actionlab.action import (Path, _alt_actions, alt_action, discrete_action,
                              interpolation_path)
from actionlab.convex import Indicator, LogSumExp, MaxLinear, Quadratic
from actionlab.errors import ConfigError
from actionlab.verify import (SCOPES, _random_nodes, coarsened_bound_failures,
                              descent_monotonicity_failures,
                              endpoint_pinning_failures,
                              envelope_gradient_lipschitz_failures,
                              envelope_identity_failures,
                              interpolation_bound_failures,
                              interpolation_endpoint_failures,
                              kinetic_gradient_failures,
                              moreau_decomposition_failures,
                              null_lagrangian_failures,
                              objective_gradient_failures,
                              recovery_bound_failures,
                              resolvent_lipschitz_failures,
                              sampled_lower_bound_failures,
                              slope_chain_failures,
                              slope_tau_monotonicity_failures,
                              tilted_gradient_failures,
                              upper_gradient_failures, verify_suite)
from actionlab.sets import Ball, Box, Halfspace


def test_full_suite_is_clean_at_seed_zero():
    report = verify_suite(seed=0, samples=4)
    assert report.ok, [c.name for c in report.checks if not c.passed]
    assert report.failure_count == 0
    assert set(c.scope for c in report.checks) == set(SCOPES)


def test_scope_filtering():
    report = verify_suite("convex", seed=1, samples=3)
    assert all(c.scope == "convex" for c in report.checks)
    assert report.scopes == ("convex",)
    both = verify_suite(("action", "minimize"), seed=1, samples=3)
    assert set(c.scope for c in both.checks) == {"action", "minimize"}


def test_unknown_scope_rejected():
    with pytest.raises(ConfigError, match="scope"):
        verify_suite("topology", seed=0)


def test_samples_below_one_is_rejected():
    with pytest.raises(ConfigError, match="samples"):
        verify_suite("convex", seed=0, samples=0)


def test_summary_lines_shape():
    report = verify_suite("convex", seed=0, samples=2)
    lines = report.summary_lines()
    assert len(lines) == len(report.checks) + 1
    assert all(ln.startswith(("PASS", "FAIL")) for ln in lines[:-1])
    assert lines[-1].startswith("OK" if report.ok else "FAILED")


def test_corrupted_modulus_is_flushed_out():
    """A descriptor lying about its curvature must fail the invariant sweep.

    The resolvent contraction factor 1/(1 + lambda*tau) is checked against
    the declared modulus; bumping it upward after construction makes the
    declared factor smaller than the measured one.
    """
    liar = Quadratic(np.array([[0.3]]), np.zeros(1), 0.0)
    object.__setattr__(liar, "lam", 2.5)
    report = verify_suite("convex", seed=0, samples=4,
                          extra_functions=(liar,))
    assert not report.ok
    failing = {c.name for c in report.checks if not c.passed}
    assert failing & {"resolvent_lipschitz", "slope_chain",
                      "slope_tau_monotonicity"}
    # failure payloads are JSON-serializable dicts with context
    bad = next(c for c in report.checks if not c.passed)
    assert isinstance(bad.failures[0], dict)
    assert len(bad.failures) <= 5


def test_report_to_dict_is_plain_data():
    import json
    report = verify_suite("gamma", seed=2, samples=2)
    doc = report.to_dict()
    json.dumps(doc)
    assert doc["seed"] == 2
    assert doc["ok"] == report.ok


def test_same_seed_same_report():
    a = verify_suite("convex", seed=5, samples=3).to_dict()
    b = verify_suite("convex", seed=5, samples=3).to_dict()
    assert a == b


def test_convex_checks_keep_their_default_sample_counts():
    """14 pool functions (3 for the max-linear pool) times each check's
    default per-function count."""
    report = verify_suite("convex", seed=0)
    assert {c.name: c.samples for c in report.checks} == {
        "envelope_identity": 350,
        "tilted_gradient_identity": 350,
        "slope_chain": 420,
        "resolvent_lipschitz": 350,
        "envelope_gradient_lipschitz": 350,
        "moreau_decomposition": 90,
        "slope_tau_monotonicity": 112,
        "sampled_lower_bound": 280,
    }


@pytest.mark.parametrize("helper, rows_per_trial", [
    (envelope_identity_failures, 1),
    (tilted_gradient_failures, 1),
    (slope_chain_failures, 1),
    (resolvent_lipschitz_failures, 2),
    (envelope_gradient_lipschitz_failures, 2),
    (slope_tau_monotonicity_failures, 6),
    # the 512-chord interpolation paths; the 256-chord ones are their even nodes
    (interpolation_bound_failures, 513),
    (coarsened_bound_failures, 513),
    (interpolation_endpoint_failures, 33),
])
def test_batched_check_resolves_every_sample_in_one_call(helper, rows_per_trial,
                                                         monkeypatch):
    calls = []
    prox_many = Quadratic.prox_many

    def counting(self, tau, X):
        calls.append(X.shape[0])
        return prox_many(self, tau, X)

    monkeypatch.setattr(Quadratic, "prox_many", counting)
    f = Quadratic(np.array([[2.0, 0.3], [0.3, -0.4]]), np.array([0.1, -0.2]))
    assert helper(f, np.random.default_rng(0), 17) == []
    assert calls == [17 * rows_per_trial]


def test_sampled_lower_bound_is_one_value_and_one_slope_call(monkeypatch):
    calls = []
    value_many, slope_many = Quadratic.value_many, Quadratic.slope_many

    def counting_value(self, X):
        calls.append(("value", X.shape[0]))
        return value_many(self, X)

    def counting_slope(self, X):
        calls.append(("slope", X.shape[0]))
        return slope_many(self, X)

    monkeypatch.setattr(Quadratic, "value_many", counting_value)
    monkeypatch.setattr(Quadratic, "slope_many", counting_slope)
    f = Quadratic(np.array([[2.0, 0.3], [0.3, -0.4]]), np.array([0.1, -0.2]))
    assert sampled_lower_bound_failures(f, np.random.default_rng(0), 17) == []
    # the 17 points and their 4 samples each, then the 17 slopes
    assert calls == [("value", 17 * 5), ("slope", 17)]


def test_interpolation_checks_measure_the_public_paths():
    from actionlab.verify import _coarse_and_fine_actions
    f = LogSumExp(np.array([[1.0, 0.2], [-0.4, 1.0], [0.0, -1.0]]), 0.3)
    taus, deltas = np.array([0.3, 0.8]), np.array([0.5, 1.2])
    X0, XD = np.array([[-1.0, 0.4], [0.2, 0.1]]), np.array([[1.3, -0.6], [-0.5, 0.9]])
    act, act_fine = _coarse_and_fine_actions(f, taus, deltas, X0, XD)
    for i in range(2):
        for M, a in ((256, act[i]), (512, act_fine[i])):
            path = interpolation_path(f, taus[i], deltas[i], X0[i], XD[i], M)
            assert discrete_action(f, path).total == pytest.approx(a, rel=1e-13)


def test_upper_gradient_check_is_one_slope_call(monkeypatch):
    calls = []
    slope_many = Quadratic.slope_many

    def counting(self, X):
        calls.append(X.shape[0])
        return slope_many(self, X)

    monkeypatch.setattr(Quadratic, "slope_many", counting)
    f = Quadratic(np.array([[2.0, 0.3], [0.3, -0.4]]), np.array([0.1, -0.2]))
    assert upper_gradient_failures(f, np.random.default_rng(0), 17) == []
    # per 64-chord path: 65 nodes, 64 chord midpoints, 128 quarter points
    assert calls == [17 * (65 + 64 + 128)]


@pytest.mark.parametrize("vectors", [[[1.0], [-0.5], [2.0]],
                                     [[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]]])
def test_moreau_decomposition_is_one_resolvent_and_one_oracle_call(vectors,
                                                                   monkeypatch):
    import actionlab.verify as verify

    calls = []
    oracle, prox_many = verify.hull_projection, MaxLinear.prox_many

    def counting_oracle(points, Z):
        calls.append(("oracle", np.shape(Z)))
        return oracle(points, Z)

    def counting_prox(self, tau, X):
        calls.append(("prox", np.shape(X)))
        return prox_many(self, tau, X)

    monkeypatch.setattr(verify, "hull_projection", counting_oracle)
    monkeypatch.setattr(MaxLinear, "prox_many", counting_prox)
    f = MaxLinear(vectors)
    assert moreau_decomposition_failures(f, np.random.default_rng(0), 17) == []
    assert calls == [("prox", (17, f.dim)), ("oracle", (17, f.dim))]


@pytest.mark.parametrize("helper", [descent_monotonicity_failures,
                                    endpoint_pinning_failures])
def test_minimizer_checks_solve_a_functions_trials_in_one_run(helper, monkeypatch):
    import actionlab.verify as verify

    runs = []
    minimize_paths = verify._minimize_paths

    def counting(f, X0, XD, *args, **kwargs):
        runs.append(X0.shape)
        return minimize_paths(f, X0, XD, *args, **kwargs)

    monkeypatch.setattr(verify, "_minimize_paths", counting)
    f = Quadratic(np.array([[2.0, 0.3], [0.3, 0.4]]), np.array([0.1, -0.2]))
    assert helper(f, np.random.default_rng(0), 5) == []
    assert runs == [(5, 2)]


@pytest.mark.parametrize("check, paths, sizes", [
    (lambda rng: objective_gradient_failures(
        Quadratic(np.array([[2.0, 0.3], [0.3, 0.4]]), np.zeros(2)), rng, 7), 3, range(8, 16)),
    (lambda rng: kinetic_gradient_failures(rng, 7), 6, range(6, 14)),
], ids=["objective_gradient", "kinetic_gradient"])
def test_gradient_checks_value_their_shifted_paths_in_one_call(check, paths, sizes,
                                                               monkeypatch):
    # Z and Z -+ h D, or the three pairs of shifted nodes, of one trial are
    # the paths of one evaluation: one resolvent batch of paths x N rows
    calls = []
    prox_many = Quadratic.prox_many

    def counting(self, tau, X, start=None):
        calls.append(X.shape[0])
        return prox_many(self, tau, X, start=start)

    monkeypatch.setattr(Quadratic, "prox_many", counting)
    assert check(np.random.default_rng(0)) == []
    assert len(calls) == 7
    assert all(rows % paths == 0 and rows // paths in sizes for rows in calls)


def _count_outer_calls(monkeypatch, cls, names):
    """Record (name, rows) of each call of cls's methods in names that is not
    made from inside another recorded one (the base slope_many calls
    subgradient_many)."""
    calls, depth = [], [0]

    def wrap(name, method):
        def counting(self, X, *args, **kwargs):
            if depth[0] == 0:
                calls.append((name, X.shape[0]))
            depth[0] += 1
            try:
                return method(self, X, *args, **kwargs)
            finally:
                depth[0] -= 1
        return counting

    for name in names:
        monkeypatch.setattr(cls, f"{name}_many", wrap(name, getattr(cls, f"{name}_many")))
    return calls


def test_null_lagrangian_is_one_batch_per_function(monkeypatch):
    calls = _count_outer_calls(monkeypatch, Quadratic, ("slope", "subgradient", "value"))
    f = Quadratic(np.array([[2.0, 0.3], [0.3, -0.4]]), np.array([0.1, -0.2]))
    assert null_lagrangian_failures(f, np.random.default_rng(0), 17) == []
    # the 64 chord midpoints of each path, then both endpoints of each
    assert calls == [("slope", 17 * 64), ("subgradient", 17 * 64), ("value", 2 * 17)]


def test_recovery_bound_reads_its_endpoint_slopes_in_one_call(monkeypatch):
    calls = _count_outer_calls(monkeypatch, Quadratic, ("slope",))
    f = Quadratic(np.array([[2.0, 0.3], [0.3, -0.4]]), np.array([0.1, -0.2]))
    assert recovery_bound_failures(f, np.random.default_rng(0), 17) == []
    # both endpoints of every path, the limit actions of its 48 chords, then
    # one public discrete_action of each trial's recovery path
    assert calls[:2] == [("slope", 2 * 17), ("slope", 17 * 48)]
    assert len(calls) == 2 + 17 and all(rows > 48 for _, rows in calls[2:])


@pytest.mark.parametrize("f", [
    Quadratic(np.array([[2.0, 0.3], [0.3, -0.4]]), np.array([0.1, -0.2])),
    LogSumExp(np.array([[1.0, 0.2], [-0.4, 1.0], [0.0, -1.0]]), 0.3),
    MaxLinear(np.array([[1.0], [-0.5], [2.0]])),
], ids=["quadratic", "log_sum_exp", "max_linear"])
def test_alt_actions_rows_are_each_paths_alt_action(f):
    rng = np.random.default_rng(4)
    times = np.cumsum(rng.uniform(0.1, 1.0, size=(5, 33)), axis=1)
    nodes = rng.normal(size=(5, 33, f.dim))
    alt = _alt_actions(f, times, nodes)
    for i in range(5):
        assert alt[i] == pytest.approx(alt_action(f, Path(times[i], nodes[i])), rel=1e-13)


@pytest.mark.parametrize("f", [
    Quadratic(np.eye(3), np.zeros(3)),
    Indicator(Ball(np.array([0.3, -0.2]), 0.4)),
    Indicator(Box(np.array([-0.2, 0.0]), np.array([0.3, 0.1]))),
    Indicator(Halfspace(np.array([1.0, -2.0]), -0.5)),
], ids=["quadratic", "ball", "box", "halfspace"])
def test_random_nodes_shape_and_domain(f):
    nodes = _random_nodes(np.random.default_rng(0), f, 7, 48)
    assert nodes.shape == (7, 49, f.dim)
    assert np.isfinite(nodes).all()
    if isinstance(f, Indicator):
        assert f.region.contains_many(nodes.reshape(-1, f.dim)).all()
