import math

import numpy as np
import pytest

from actionlab.convex import Indicator, LogSumExp, MaxLinear, Quadratic, slope
from actionlab.errors import ConfigError, OutsideDomainError
from actionlab.families import (FamilyMember, MoscoFamily, constant_family,
                                eventually_decreasing, family_logsumexp_to_max,
                                family_penalty_to_indicator,
                                permutation_vectors)
from actionlab.sets import Ball, Box


def test_eventually_decreasing_accepts_noisy_head():
    assert eventually_decreasing([9.0, 50.0, 3.0, 2.0, 1.0])
    assert eventually_decreasing([1.0])
    assert eventually_decreasing([])
    # 5% slack tolerates a flat tail
    assert eventually_decreasing([3.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("window", [0, -1, 1.5, "a"])
def test_eventually_decreasing_rejects_a_window_below_one(window):
    # window 0 would compare the first value with the last
    for values in ([3.0, 2.0, 1.0], [1.0, 2.0, 3.0], []):
        with pytest.raises(ConfigError, match="window"):
            eventually_decreasing(values, window=window)


def test_eventually_decreasing_rejects_rising_tail():
    assert not eventually_decreasing([5.0, 4.0, 3.0, 3.9])
    assert not eventually_decreasing([1.0, 2.0], window=3)


def test_logsumexp_family_structure():
    fam = family_logsumexp_to_max([[1.0], [-1.0]], (0.5, 0.2, 0.08, 0.03),
                                  [-1.0], [1.0])
    assert fam.size == 4
    assert fam.uniform_lambda == 0.0
    assert isinstance(fam.limit.function, MaxLinear)
    eps = [m.function.epsilon for m in fam.members]
    assert eps == [0.5, 0.2, 0.08, 0.03]
    # declared S covers every member endpoint slope
    for m in fam.members:
        for s in m.endpoint_slopes():
            assert s <= fam.slope_bound_S + 1e-9


def test_logsumexp_family_epsilon_schedule_checked():
    with pytest.raises(ConfigError):
        family_logsumexp_to_max([[1.0], [-1.0]], (0.2, 0.5), [-1.0], [1.0])
    with pytest.raises(ConfigError):
        family_logsumexp_to_max([[1.0], [-1.0]], (), [-1.0], [1.0])
    with pytest.raises(ConfigError):
        family_logsumexp_to_max([[1.0], [-1.0]], (0.5, -0.2), [-1.0], [1.0])


def test_penalty_family_structure():
    fam = family_penalty_to_indicator(Ball(np.zeros(2), 1.5), (1.0, 4.0, 16.0),
                                      [-1.0, 0.0], [1.0, 0.0])
    assert fam.size == 3
    assert isinstance(fam.limit.function, Indicator)
    assert fam.slope_bound_S == 0.0
    # penalty members vanish inside the region, slopes included
    for m in fam.members:
        assert m.function.value([0.5, 0.5]) == 0.0
        assert m.endpoint_slopes() == (0.0, 0.0)


def test_penalty_family_rejects_exterior_endpoints():
    with pytest.raises(OutsideDomainError):
        family_penalty_to_indicator(Ball(np.zeros(2), 1.5), (1.0, 4.0),
                                    [5.0, 0.0], [1.0, 0.0])
    with pytest.raises(ConfigError):
        family_penalty_to_indicator(Ball(np.zeros(2), 1.5), (4.0, 1.0),
                                    [-1.0, 0.0], [1.0, 0.0])


def test_constant_family_baseline():
    f = Quadratic(np.array([[2.0]]), np.zeros(1), 0.0)
    fam = constant_family(f, [0.0], [1.0], size=4)
    assert fam.size == 4
    assert fam.uniform_lambda == f.lam
    assert all(m.function is f for m in fam.members)
    assert fam.endpoint_drift("start") == (0.0,) * 4
    # limit slope headroom doubles into the declared bound
    assert fam.slope_bound_S == pytest.approx(2.0 * slope(f, [1.0]))


def test_family_rejects_modulus_below_uniform():
    soft = Quadratic(np.array([[-0.5]]), np.zeros(1), 0.0)
    stiff = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    members = (FamilyMember(soft, [0.0], [1.0]),)
    limit = FamilyMember(stiff, [0.0], [1.0])
    with pytest.raises(ConfigError, match="modulus"):
        MoscoFamily(members, limit, 0.0, 10.0)


def test_family_rejects_slope_above_declared_bound():
    f = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    members = (FamilyMember(f, [0.0], [5.0]),)
    limit = FamilyMember(f, [0.0], [5.0])
    with pytest.raises(ConfigError, match="slope"):
        MoscoFamily(members, limit, 0.0, 1.0)


def test_family_rejects_infinite_limit_endpoint():
    ind = Indicator(Ball(np.zeros(1), 1.0))
    f = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    members = (FamilyMember(f, [2.0], [0.0]),)
    limit = FamilyMember(ind, [2.0], [0.0])
    with pytest.raises(OutsideDomainError):
        MoscoFamily(members, limit, 0.0, 10.0)


def test_family_rejects_non_settling_endpoints():
    f = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    limit = FamilyMember(f, [0.0], [1.0])
    members = tuple(FamilyMember(f, [x], [1.0])
                    for x in (0.5, 0.1, 0.2, 0.4))
    with pytest.raises(ConfigError, match="settle"):
        MoscoFamily(members, limit, 0.0, 10.0)


def test_family_requires_members():
    f = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    with pytest.raises(ConfigError):
        MoscoFamily((), FamilyMember(f, [0.0], [1.0]), 0.0, 1.0)


def test_permutation_vectors_structure():
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    rows = permutation_vectors(pts)
    assert rows.shape == (6, 6)
    np.testing.assert_array_equal(rows[0], [1, 2, 3, 4, 5, 6])
    # lexicographic order: second permutation swaps the last two blocks
    np.testing.assert_array_equal(rows[1], [1, 2, 5, 6, 3, 4])
    assert {tuple(r) for r in rows} == {
        (1, 2, 3, 4, 5, 6), (1, 2, 5, 6, 3, 4), (3, 4, 1, 2, 5, 6),
        (3, 4, 5, 6, 1, 2), (5, 6, 1, 2, 3, 4), (5, 6, 3, 4, 1, 2)}


def test_permutation_vectors_guards():
    with pytest.raises(ConfigError):
        permutation_vectors(np.zeros((8, 1)))
    with pytest.raises(ConfigError):
        permutation_vectors(np.array([[np.inf]]))
    one = permutation_vectors([2.5])
    assert one.shape == (1, 1)


def test_logsumexp_members_dominate_and_converge_to_limit():
    fam = family_logsumexp_to_max([[1.0], [-1.0]], (0.5, 0.2, 0.08, 0.03),
                                  [-1.0], [1.0])
    x = np.array([0.3])
    vmax = fam.limit.function.value(x)
    vals = [m.function.value(x) for m in fam.members]
    # mean-normalized smoothing sits below the max by at most eps*log(k)
    for v, m in zip(vals, fam.members):
        assert vmax - m.function.epsilon * math.log(2.0) - 1e-12 <= v <= vmax
    gaps = [vmax - v for v in vals]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_each_endpoint_slope_is_computed_once(monkeypatch):
    # one slope per member and limit endpoint, shared by the declared bound
    # S and the family's check of its members against S
    import actionlab.families as families

    calls = []
    real = families.slope

    def counting(f, x):
        calls.append(1)
        return real(f, x)

    monkeypatch.setattr(families, "slope", counting)
    fam = family_logsumexp_to_max([[1.0], [-1.0]], (0.5, 0.2, 0.08, 0.03),
                                  [-1.0], [1.0])
    assert len(calls) == 2 * (fam.size + 1)
