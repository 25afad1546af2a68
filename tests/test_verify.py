import numpy as np
import pytest

from actionlab import serialize
from actionlab.action import (Path, _alt_actions, alt_action, discrete_action,
                              interpolation_path)
from actionlab.convex import (ConvexFunction, Indicator, LogSumExp, MaxLinear,
                              Quadratic, SquaredDistance)
from actionlab.errors import ConfigError
from actionlab.verify import (SCOPES, _failed, _random_nodes, _sample_taus,
                              _walk_weights, coarsened_bound_failures,
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


class _ShiftedResolvent(ConvexFunction):
    """x^2/2 in one dimension, but with the resolvent x + 1: a kind the
    document codec has no name for, and a wrong one."""

    dim = 1

    def value_many(self, X):
        return 0.5 * (X**2).sum(axis=1)

    def subgradient_many(self, X):
        return X.copy()

    def prox_many(self, tau, X, start=None):
        return X + 1.0, np.zeros(X.shape[0])


def test_extra_function_of_an_unknown_kind_is_reported():
    # its failure records name the class instead of aborting the suite
    report = verify_suite("convex", seed=0, samples=2,
                          extra_functions=[_ShiftedResolvent()])
    failing = [c for c in report.checks if not c.passed]
    assert {c.name for c in failing} >= {"envelope_identity", "slope_chain"}
    for c in failing:
        assert all(r["function"] == {"class": "_ShiftedResolvent"}
                   for r in c.failures)


@pytest.mark.parametrize("helper", [envelope_identity_failures,
                                    tilted_gradient_failures,
                                    slope_chain_failures,
                                    sampled_lower_bound_failures])
def test_squared_distance_to_a_halfspace_meets_the_identities(helper):
    # the sampled pool has no such function, and adding one would move its
    # draws; this runs its value, slope and subgradient through the checks
    f = SquaredDistance(Halfspace(np.array([1.0, -2.0]), 0.3), 0.7)
    assert helper(f, np.random.default_rng(0), 40) == []


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
    # one action batch per patch count m = max(16, ceil(48 tau)): the 48 + 2m
    # chords of each of its trials' recovery curves
    m = np.maximum(16, np.ceil(48 * np.minimum(
        _sample_taus(np.random.default_rng(0), f, 17), 0.35)))
    assert calls == [("slope", 2 * 17), ("slope", 17 * 48)] + [
        ("slope", int(np.sum(m == k)) * (48 + 2 * int(k))) for k in np.unique(m)]


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


def test_random_nodes_reuse_one_read_only_weight_matrix_per_segment_count():
    W = _walk_weights(48)
    assert W is _walk_weights(48) and not W.flags.writeable
    assert W.shape == (49, 6)
    # against the matrix rebuilt on every call: the nodes are bit-identical
    f = Quadratic(np.eye(2), np.zeros(2))
    nodes = _random_nodes(np.random.default_rng(5), f, 7, 64)
    rng = np.random.default_rng(5)
    knots = np.cumsum(np.concatenate([rng.normal(size=(7, 1, 2)) * 0.8,
                                      rng.normal(size=(7, 5, 2)) * 0.24], axis=1), axis=1)
    s = np.linspace(0.0, 1.0, 65)
    weights = np.column_stack([np.interp(s, np.linspace(0.0, 1.0, 6), e)
                               for e in np.eye(6)])
    np.testing.assert_array_equal(nodes, weights @ knots)


class _ShiftedQuadratic(Quadratic):
    """A quadratic whose every resolvent is moved by 0.3."""

    def prox_many(self, tau, X, start=None):
        Y, residual = super().prox_many(tau, X, start)
        return Y + 0.3, residual


class _SteepQuadratic(Quadratic):
    """A quadratic whose slope and subgradient are tripled, then raised by 1."""

    def slope_many(self, X):
        return 3.0 * super().slope_many(X) + 1.0

    def subgradient_many(self, X):
        return 3.0 * super().subgradient_many(X) + 1.0


class _FlatQuadratic(Quadratic):
    """A quadratic whose slope is a tenth of the true one."""

    def slope_many(self, X):
        return 0.1 * super().slope_many(X)


class _WavyQuadratic(Quadratic):
    """A quadratic whose value carries an extra 5 sin 7x."""

    def value_many(self, X):
        return super().value_many(X) + 5.0 * np.sin(7.0 * X).sum(axis=1)


class _WrongHessianQuadratic(Quadratic):
    """A quadratic whose envelope Hessian K is doubled plus 0.5 I."""

    def envelope_derivatives_many(self, tau, X, Y):
        K, C = super().envelope_derivatives_many(tau, X, Y)
        return 2.0 * K + 0.5 * np.eye(K.shape[-1]), C


class _ShiftedMaxLinear(MaxLinear):
    """A max-linear function whose every resolvent is moved by 0.3."""

    def prox_many(self, tau, X, start=None):
        Y, residual = super().prox_many(tau, X, start)
        return Y + 0.3, residual


CORRUPTED = {
    "shifted": _ShiftedQuadratic([[1.0]], [0.0]),
    "steep": _SteepQuadratic([[1.0]], [0.0]),
    "flat": _FlatQuadratic([[1.0]], [0.0]),
    "wavy": _WavyQuadratic([[1.0]], [0.0]),
    "wrong_hessian": _WrongHessianQuadratic([[1.0]], [0.0]),
    "shifted_max_linear": _ShiftedMaxLinear([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]]),
}

# every per-function helper with the corrupted kinds it reports at
# default_rng(0) and 6 trials; the two Lipschitz checks,
# descent_monotonicity and endpoint_pinning report none of them
_TRIPPED_BY = {
    envelope_identity_failures: ("shifted", "wavy", "shifted_max_linear"),
    tilted_gradient_failures: ("shifted", "shifted_max_linear"),
    slope_chain_failures: ("shifted", "steep", "flat", "shifted_max_linear"),
    moreau_decomposition_failures: ("shifted_max_linear",),
    slope_tau_monotonicity_failures: ("shifted",),
    sampled_lower_bound_failures: ("flat", "wavy"),
    interpolation_bound_failures: ("steep",),
    coarsened_bound_failures: ("flat",),
    null_lagrangian_failures: ("steep", "flat", "wavy"),
    upper_gradient_failures: ("flat", "wavy"),
    interpolation_endpoint_failures: ("shifted", "shifted_max_linear"),
    objective_gradient_failures: ("wrong_hessian", "shifted_max_linear"),
    recovery_bound_failures: ("shifted", "steep", "shifted_max_linear"),
}


@pytest.mark.parametrize("helper, kind", [
    (helper, kind) for helper, kinds in _TRIPPED_BY.items() for kind in kinds],
    ids=lambda v: getattr(v, "__name__", v))
def test_corrupted_kinds_are_reported(helper, kind):
    f = CORRUPTED[kind]
    fails = helper(f, np.random.default_rng(0), 6)
    assert fails
    serialize.dumps(fails)
    assert all(r["function"] == serialize.function_to_dict(f) for r in fails)


def test_recovery_junction_mismatch_is_reported_not_raised():
    fails = recovery_bound_failures(CORRUPTED["shifted"], np.random.default_rng(0), 2)
    assert len(fails) == 2
    for r in fails:
        assert 0.0 < r["tau"] <= 0.35
        assert r["junction"] == "recovery entry junction mismatch 3.000e-01"


def test_failed_builds_one_record_per_flagged_row():
    f = Quadratic([[1.0]], [0.0])
    doc = serialize.function_to_dict(f)
    X = np.arange(6.0).reshape(3, 2)
    assert _failed(f, np.zeros(3, dtype=bool), x=X, tau=0.5) == []
    # a one-value column is copied into every record, a 2-d column gives rows
    assert _failed(f, [False, True, True], x=X, tau=0.5, kind="left",
                   ratio=np.array([1.0, 2.0, 3.0])) == [
        {"function": doc, "x": [2.0, 3.0], "tau": 0.5, "kind": "left", "ratio": 2.0},
        {"function": doc, "x": [4.0, 5.0], "tau": 0.5, "kind": "left", "ratio": 3.0}]
