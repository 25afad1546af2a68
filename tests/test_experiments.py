import numpy as np
import pytest

from actionlab.action import Path
from actionlab.convex import LogSumExp, Quadratic, prox
from actionlab.errors import ConfigError
from actionlab.experiments import (gamma_limsup_experiment,
                                   gamma_value_experiment,
                                   resolvent_convergence_table,
                                   slope_semicontinuity_table)
from actionlab.families import (FamilyMember, MoscoFamily, constant_family,
                                family_logsumexp_to_max,
                                family_penalty_to_indicator)
from actionlab.minimize import MinimizeConfig, minimize_action
from actionlab.sets import Ball


def lse_family():
    return family_logsumexp_to_max([[1.0], [-1.0]], (0.5, 0.2, 0.08, 0.03),
                                   [-1.0], [1.0])


def pen_family():
    return family_penalty_to_indicator(Ball(np.zeros(2), 1.5),
                                       (1.0, 4.0, 16.0, 64.0),
                                       [-1.0, 0.0], [1.0, 0.0])


def test_slope_table_rejects_a_window_below_one():
    # checked up front: with margin 0 the final-deficit test fails first and
    # the window audit is never reached
    with pytest.raises(ConfigError, match="window"):
        slope_semicontinuity_table(lse_family(), [[0.7], [-0.9]], margin=0.0,
                                   window=0)


def test_resolvent_table_gaps_decrease():
    rep = resolvent_convergence_table(lse_family(), 0.3,
                                      [[0.0], [0.7], [-1.2]])
    assert rep.ok
    assert rep.kind == "resolvent"
    assert len(rep.rows) == 4 * 3
    for j in range(3):
        gaps = [r["gap"] for r in rep.rows if r["probe"] == j]
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert max(rep.metadata["final_gaps"]) <= 1e-2


def test_resolvent_table_constant_family_zero_gaps():
    f = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    rep = resolvent_convergence_table(constant_family(f, [0.0], [1.0]), 0.5,
                                      [[0.4]])
    assert rep.ok
    assert all(r["gap"] == 0.0 for r in rep.rows)


@pytest.mark.parametrize("family", [
    pytest.param(lse_family(), id="lse-1d"),
    pytest.param(pen_family(), id="penalty-2d"),
    pytest.param(family_logsumexp_to_max(
        np.random.default_rng(1).normal(size=(7, 3)), (0.4, 0.1, 0.02),
        np.zeros(3), np.ones(3)), id="lse-3d")])
def test_resolvent_table_is_one_batch_per_member(family, monkeypatch):
    """One prox_many over all probes per member plus one for the limit, with
    the gaps of one prox per (member, probe)."""
    probes = np.random.default_rng(2).normal(size=(5, family.dim))
    limit = [prox(family.limit.function, 0.3, p).resolvent_point for p in probes]
    expected = [[float(np.linalg.norm(prox(mem.function, 0.3, p).resolvent_point - q))
                 for p, q in zip(probes, limit)] for mem in family.members]
    calls = []
    for f in {type(m.function) for m in (*family.members, family.limit)}:
        def counted(self, tau, X, start=None, _inner=f.prox_many):
            calls.append(np.shape(X)[0])
            return _inner(self, tau, X, start)
        monkeypatch.setattr(f, "prox_many", counted)
    rep = resolvent_convergence_table(family, 0.3, probes)
    assert calls == [len(probes)] * (family.size + 1)
    for row in rep.rows:
        assert row["gap"] == pytest.approx(expected[row["member"]][row["probe"]],
                                           rel=0.0, abs=1e-12)


def test_resolvent_table_requires_probes():
    with pytest.raises(ConfigError):
        resolvent_convergence_table(lse_family(), 0.3, [])


def test_value_experiment_constant_family_zero_gap():
    f = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    fam = constant_family(f, [1.0], [2.0], size=3)
    rep = gamma_value_experiment(fam, 1.0, MinimizeConfig(N=32))
    assert rep.ok
    assert rep.metadata["final_gap"] == 0.0
    assert all(r["gap_to_limit"] == 0.0 for r in rep.rows)
    assert rep.limit_row["converged"]


_TRIANGLE = [[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]]
_VALUE_FAMILIES = {
    "lse-1d": (lambda: family_logsumexp_to_max(
        [[1.0], [-1.0]], (0.5, 0.2, 0.08, 0.03, 0.01), [-1.0], [1.0]), 128),
    "lse-triangle": (lambda: family_logsumexp_to_max(
        _TRIANGLE, (0.5, 0.2, 0.08, 0.03), [-1.0, 0.0], [1.0, 0.5]), 32),
    "penalty": (pen_family, 48),
    "constant": (lambda: constant_family(
        LogSumExp(_TRIANGLE, 0.1), [-1.0, 0.0], [1.0, 0.5], size=3), 32),
}


@pytest.mark.parametrize("name", list(_VALUE_FAMILIES))
def test_value_experiment_members_match_their_own_solves(name, lockstep_runs):
    """A built-in family's members run as one lockstep run, on one base
    function with a per-path (c, L) scale, and the limit joins them only when
    it shares their unit function; every row matches its own solve."""
    build, n = _VALUE_FAMILIES[name]
    fam, cfg = build(), MinimizeConfig(N=n)
    rep = gamma_value_experiment(fam, 1.0, cfg)
    shared = fam.limit.function is fam.members[0].function
    assert lockstep_runs == ([fam.size + 1] if shared else [fam.size, 1])
    for row, mem in zip([*rep.rows, rep.limit_row], [*fam.members, fam.limit]):
        solo = minimize_action(mem.function, mem.start, mem.end, 1.0, cfg)
        assert row["value"] == pytest.approx(solo.value_true, rel=1e-9, abs=0.0)
        assert row["iterations"] == solo.iterations
        assert row["converged"] is solo.converged is True


def test_value_experiment_groups_members_by_unit_function(lockstep_runs):
    """Members with different unit functions go to separate lockstep runs,
    the limit to the run of its own, and the rows stay in member order."""
    f, g = Quadratic([[1.0]], [0.0]), Quadratic([[2.0]], [0.0])
    members = tuple(FamilyMember(h, [1.0], [2.0]) for h in (f, g, f, g))
    fam = MoscoFamily(members, FamilyMember(f, [1.0], [2.0]), 1.0, 4.0)
    cfg = MinimizeConfig(N=32)
    rep = gamma_value_experiment(fam, 1.0, cfg)
    assert lockstep_runs == [3, 2]
    assert [r["member"] for r in rep.rows] == [0, 1, 2, 3]
    for row, mem in zip([*rep.rows, rep.limit_row], [*members, fam.limit]):
        solo = minimize_action(mem.function, [1.0], [2.0], 1.0, cfg)
        assert row["value"] == solo.value_true


def test_value_experiment_lse_gap_shrinks():
    rep = gamma_value_experiment(lse_family(), 1.0, MinimizeConfig(N=64))
    assert rep.kind == "value"
    gaps = [r["gap_to_limit"] for r in rep.rows]
    assert gaps[-1] < gaps[0]
    assert rep.metadata["final_relative_gap"] <= 0.05
    assert "value gap to the limit is not eventually decreasing" not in rep.flags


def test_limsup_rows_respect_bound():
    fam = pen_family()
    gamma = Path.straight(fam.limit.start, fam.limit.end, intervals=32)
    rep = gamma_limsup_experiment(fam, gamma, (0.2, 0.05, 0.0125))
    assert rep.ok
    assert len(rep.rows) == 3 * fam.size
    for r in rep.rows:
        assert r["action"] <= r["bound"] + r["tolerance"]
    assert rep.limit_row["action"] == pytest.approx(4.0, abs=1e-9)


def test_limsup_rejects_mismatched_gamma():
    fam = pen_family()
    off = Path.straight([-1.0, 0.3], [1.0, 0.0], intervals=8)
    with pytest.raises(ConfigError, match="endpoint"):
        gamma_limsup_experiment(fam, off, (0.2,))
    with pytest.raises(ConfigError):
        gamma_limsup_experiment(fam,
                                Path.straight(fam.limit.start,
                                              fam.limit.end, intervals=8),
                                ())


def test_slope_lsc_table_on_smoothed_max():
    # probes sit far enough from the kink that 2*exp(-2|x|/eps) < 1e-6
    rep = slope_semicontinuity_table(lse_family(), [[0.7], [-0.9], [0.3]])
    assert rep.kind == "slope_lsc"
    assert rep.ok
    for r in rep.rows:
        assert r["final_deficit"] <= 1e-6
        assert len(r["member_slopes"]) == 4


def test_slope_lsc_flags_stalled_deficit():
    # two members with fixed smoothing: the deficit to the sharp limit stalls
    fam = family_logsumexp_to_max([[1.0], [-1.0]], (0.5, 0.49), [-1.0], [1.0])
    rep = slope_semicontinuity_table(fam, [[0.05]])
    assert not rep.ok
    assert any("probe 0" in fl for fl in rep.flags)


def test_slope_lsc_infinite_limit_slope():
    fam = pen_family()
    # outside the ball the limit slope is infinite, member slopes are finite
    rep = slope_semicontinuity_table(fam, [[3.0, 0.0]])
    assert not rep.ok
    assert np.isinf(rep.rows[0]["limit_slope"])


def test_report_to_dict_round_trip_shape():
    rep = resolvent_convergence_table(lse_family(), 0.3, [[0.0]])
    d = rep.to_dict()
    assert d["ok"] is True
    assert d["kind"] == "resolvent"
    assert isinstance(d["rows"], list) and isinstance(d["metadata"], dict)
    assert d["flags"] == []
