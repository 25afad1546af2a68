"""The shared readers of `actionlab.errors`: every public entry point that
reads a point, a vector or a vector set rejects a non-finite or misshapen
one with a package error."""
import math

import numpy as np
import pytest

from actionlab.action import Path
from actionlab.convex import LogSumExp, MaxLinear, Quadratic, prox, slope
from actionlab.errors import ActionLabError
from actionlab.families import (FamilyMember, constant_family,
                                family_logsumexp_to_max,
                                family_penalty_to_indicator,
                                permutation_vectors)
from actionlab.minimize import MinimizeConfig, closed_form_value, minimize_action
from actionlab.minnorm import hull_projection
from actionlab.oracle import GridSpec
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
