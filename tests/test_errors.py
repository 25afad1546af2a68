"""The shared readers of `actionlab.errors`: every public entry point that
reads a point, a vector or a vector set rejects a non-finite or misshapen
one with a package error."""
import json
import math

import numpy as np
import pytest

from actionlab.action import (Path, coarsened_interpolation_bound, discrete_action,
                              dubois_reymond_residual)
from actionlab.cli import main
from actionlab.convex import (Indicator, LogSumExp, MaxLinear, Quadratic, prox,
                              sampled_slope_lower_bound, slope)
from actionlab.errors import (ActionLabError, ConfigError, DimensionMismatchError,
                              OutsideDomainError)
from actionlab.experiments import gamma_limsup_experiment
from actionlab.families import (FamilyMember, MoscoFamily, constant_family,
                                family_logsumexp_to_max,
                                family_penalty_to_indicator,
                                permutation_vectors)
from actionlab.minimize import MinimizeConfig, closed_form_value, minimize_action
from actionlab.minnorm import hull_projection
from actionlab.oracle import GridSpec, grid_oracle
from actionlab.serialize import path_from_csv
from actionlab.sets import Ball, Box, Halfspace, contains, project

HALF_SQ = Quadratic([[1.0]], [0.0])
DISK = Ball([0.0, 0.0], 1.0)
PLANE = [[1.0, 0.0], [0.0, 1.0]]

# name: (a valid value, the call reading it, that value with a wrong shape)
_READERS = {
    "contains-point": ([0.5, 0.0], lambda v: contains(DISK, v), [0.5, 0.0, 0.0]),
    "project-point": ([0.5, 0.0], lambda v: project(DISK, v), [0.5, 0.0, 0.0]),
    "prox-point": ([0.5], lambda v: prox(HALF_SQ, 0.5, v), [0.5, 0.0]),
    "slope-point": ([0.5], lambda v: slope(HALF_SQ, v), [0.5, 0.0]),
    "prox_many-points": ([[0.5]], lambda v: HALF_SQ.prox_many(0.5, v), [[0.5, 0.0]]),
    "closed_form-displacement": (
        [1.0], lambda v: closed_form_value("free", delta=1.0, displacement=v), [[1.0]]),
    "closed_form-x0": (
        [0.0], lambda v: closed_form_value("free", delta=1.0, x0=v, xd=[1.0]),
        [0.0, 1.0]),
    "closed_form-xd": (
        [1.0], lambda v: closed_form_value("free", delta=1.0, x0=[0.0], xd=v),
        [1.0, 1.0]),
    "grid-lo": ([0.0], lambda v: GridSpec(v, [1.0], (4,)), [0.0, 0.0]),
    "grid-hi": ([1.0], lambda v: GridSpec([0.0], v, (4,)), [1.0, 1.0]),
    "ball-center": ([0.0, 0.0], lambda v: Ball(v, 1.0), [[0.0, 0.0]]),
    "box-lo": ([0.0, 0.0], lambda v: Box(v, [1.0, 1.0]), [0.0, 0.0, 0.0]),
    "box-hi": ([1.0, 1.0], lambda v: Box([0.0, 0.0], v), [1.0, 1.0, 1.0]),
    "halfspace-normal": ([1.0, 0.0], lambda v: Halfspace(v, 0.0), [[1.0, 0.0]]),
    "quadratic-b": ([0.0], lambda v: Quadratic([[1.0]], v), [0.0, 0.0]),
    "max_linear-vectors": (PLANE, lambda v: MaxLinear(v), [PLANE]),
    "log_sum_exp-vectors": (PLANE, lambda v: LogSumExp(v, 0.1), [PLANE]),
    "permutation_vectors-points": ([[0.0], [1.0]], permutation_vectors, [[[0.0], [1.0]]]),
    "hull_projection-points": (PLANE, lambda v: hull_projection(v, [0.0, 0.0]), [PLANE]),
    "hull_projection-target": ([0.0, 0.0], lambda v: hull_projection(PLANE, v),
                               [0.0, 0.0, 0.0]),
    "path-times": ([0.0, 1.0], lambda v: Path(v, [[0.0], [1.0]]), [0.0, 0.5, 1.0]),
    "path-nodes": ([[0.0], [1.0]], lambda v: Path([0.0, 1.0], v), [[0.0], [1.0], [2.0]]),
    "straight-x0": ([0.0], lambda v: Path.straight(v, [1.0]), [0.0, 0.0]),
    "straight-xd": ([1.0], lambda v: Path.straight([0.0], v), [1.0, 1.0]),
    "family_member-start": ([0.0], lambda v: FamilyMember(HALF_SQ, v, [1.0]), [0.0, 0.0]),
    "family_member-end": ([1.0], lambda v: FamilyMember(HALF_SQ, [0.0], v), [1.0, 1.0]),
    "family-x0": ([-1.0], lambda v: family_logsumexp_to_max(
        [[1.0], [-1.0]], (0.5, 0.2), v, [1.0]), [-1.0, 0.0]),
    "minimize_action-x0": ([0.0], lambda v: minimize_action(
        HALF_SQ, v, [1.0], 1.0, MinimizeConfig(N=4)), [0.0, 0.0]),
    "minimize_action-xd": ([1.0], lambda v: minimize_action(
        HALF_SQ, [0.0], v, 1.0, MinimizeConfig(N=4)), [1.0, 1.0]),
}


def _spoiled(value, entry):
    arr = np.array(value, dtype=float)
    arr.flat[0] = entry
    return arr.tolist()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "wrong_shape"])
@pytest.mark.parametrize("reader", list(_READERS))
def test_entry_points_reject_bad_points_and_vectors(reader, bad):
    good, call, wrong = _READERS[reader]
    value = wrong if bad == "wrong_shape" else _spoiled(good, float(bad))
    with pytest.raises(ActionLabError):
        call(value)


@pytest.mark.parametrize("build", [
    lambda x0, x1: family_logsumexp_to_max([[1.0], [-1.0]], (0.5, 0.2), x0, x1),
    lambda x0, x1: family_penalty_to_indicator(Ball([0.0], 2.0), (1.0, 4.0), x0, x1),
    lambda x0, x1: constant_family(HALF_SQ, x0, x1, size=2),
], ids=["logsumexp_to_max", "penalty_to_indicator", "constant"])
def test_families_leave_the_callers_endpoints_writeable(build):
    x0, x1 = np.array([-1.0]), np.array([1.0])
    family = build(x0, x1)
    assert x0.flags.writeable and x1.flags.writeable
    for member in (*family.members, family.limit):
        assert not member.start.flags.writeable and not member.end.flags.writeable
        assert member.start is not x0 and member.end is not x1
    x0[0] = math.pi   # the family keeps its own copy
    assert family.limit.start[0] == -1.0


# name: (the call, the error it raises, a fragment of its message)
_REJECTIONS = {
    "discrete_action-rule": (
        lambda: discrete_action(HALF_SQ, Path.straight([0.0], [1.0]), rule="simpson"),
        ConfigError, "quadrature rule must be one of"),
    "discrete_action-dimension": (
        lambda: discrete_action(HALF_SQ, Path.straight([0.0, 0.0], [1.0, 1.0])),
        DimensionMismatchError, "path dimension does not match the function"),
    "dubois_reymond-infinite_slope": (
        lambda: dubois_reymond_residual(Indicator(Ball([0.0], 1.0)),
                                        Path.straight([0.0], [3.0], intervals=4)),
        OutsideDomainError, "infinite slope along the path"),
    "quadratic-not_square": (lambda: Quadratic([[1.0, 0.0]], [0.0]),
                             ConfigError, "Q must be a square matrix"),
    "quadratic-not_finite": (lambda: Quadratic([[math.inf]], [0.0]),
                             ConfigError, "Q must be finite"),
    "quadratic-not_symmetric": (lambda: Quadratic([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0]),
                                ConfigError, "Q must be symmetric"),
    "indicator-region": (lambda: Indicator(5),
                         ConfigError, "region must be a ball, box, or halfspace"),
    "slope_bound-no_samples": (
        lambda: sampled_slope_lower_bound(HALF_SQ, [0.5], np.zeros((0, 1))),
        ConfigError, "need at least one sample point"),
    "slope_bound-empty_list": (     # [] is no points, not one point of width 0
        lambda: sampled_slope_lower_bound(HALF_SQ, [0.5], []),
        ConfigError, "need at least one sample point"),
    "slope_bound-no_samples_2d": (
        lambda: sampled_slope_lower_bound(Quadratic(np.eye(2), [0.0, 0.0]), [0.5, 0.5],
                                          np.zeros((0, 2))),
        ConfigError, "need at least one sample point"),
    "slope_bound-empty_list_2d": (
        lambda: sampled_slope_lower_bound(Quadratic(np.eye(2), [0.0, 0.0]), [0.5, 0.5], []),
        ConfigError, "need at least one sample point"),
    "slope_bound-sample_at_x": (
        lambda: sampled_slope_lower_bound(HALF_SQ, [0.5], [[1.0], [0.5]]),
        ConfigError, "sample points must differ from x"),
    "box-lo_above_hi": (lambda: Box([1.0, 0.0], [0.0, 1.0]),
                        ConfigError, "box requires lo <= hi componentwise"),
    "halfspace-zero_normal": (lambda: Halfspace([0.0, 0.0], 1.0),
                              ConfigError, "halfspace normal must be nonzero"),
    "grid-cell_counts": (lambda: GridSpec([0.0], [1.0], (4, 4)),
                         ConfigError, "cells must give one count per dimension"),
    "grid_oracle-x0_outside": (
        lambda: grid_oracle(HALF_SQ, [2.0], [1.0], 1.0, GridSpec([0.0], [1.0], (4,)), 4),
        ConfigError, "x0 lies outside the grid box"),
    "path_csv-no_coordinate": (lambda: path_from_csv("t\n0\n1\n"),
                               ConfigError, "needs at least one coordinate column"),
    "limsup-infinite_action": (
        lambda: gamma_limsup_experiment(
            family_penalty_to_indicator(Ball([0.0], 1.0), (1.0, 4.0), [-0.5], [0.5]),
            Path([0.0, 0.5, 1.0], [[-0.5], [3.0], [0.5]]), [0.1]),
        ConfigError, "gamma must have finite action under the limit"),
    "family-member_dimension": (
        lambda: MoscoFamily(
            (FamilyMember(Quadratic(np.eye(2), [0.0, 0.0]), [0.0, 0.0], [1.0, 1.0]),),
            FamilyMember(HALF_SQ, [0.0], [1.0]), 0.0, 1.0),
        DimensionMismatchError, "member 0 has dimension 2, limit has 1"),
    "family-negative_S": (
        lambda: MoscoFamily((FamilyMember(HALF_SQ, [0.0], [1.0]),),
                            FamilyMember(HALF_SQ, [0.0], [1.0]), 0.0, -1.0),
        ConfigError, "slope_bound_S must be nonnegative"),
    "family-endpoint_drift": (
        lambda: family_logsumexp_to_max([[1.0], [-1.0]], (0.5, 0.2), [-1.0], [1.0]
                                        ).endpoint_drift("middle"),
        ConfigError, "which must be 'start' or 'end'"),
    "family-infinite_endpoint_slope": (
        lambda: constant_family(Indicator(Ball([0.0], 1.0)), [3.0], [0.0]),
        OutsideDomainError, "member 0 endpoint has infinite slope"),
    "coarsened_bound-outside_domain": (     # it reads g(x0) and g(xd), as the sharp bound does
        lambda: coarsened_interpolation_bound(Indicator(Ball([0.0], 1.0)), 0.5, [3.0], [0.0]),
        OutsideDomainError, "minimal subgradient undefined outside the region"),
}


@pytest.mark.parametrize("case", list(_REJECTIONS))
def test_rejections_raise_their_class_and_message(case):
    call, error, message = _REJECTIONS[case]
    with pytest.raises(error, match=message):
        call()


def test_quadratic_reads_a_scalar_q_as_a_1x1_matrix():
    assert Quadratic(2.0, [0.0]).Q.tolist() == [[2.0]]


def test_gamma_with_an_unreadable_curve_exits_2(capsys, tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"builder": "logsumexp_to_max", "vectors": [[1.0], [-1.0]],
                                  "epsilons": [0.5, 0.2], "x0": [-1.0], "x1": [1.0]}))
    code = main(["gamma", "--family", str(family), "--experiment", "limsup",
                 "--taus", "0.1", "--gamma-csv", str(tmp_path / "missing.csv")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err
