"""Families of functions converging to a declared limit, with endpoints.

A family packages an indexed sequence (f_h, x_h0, x_h1) together with its
limit (f, x_0, x_1), a uniform convexity modulus, and a declared bound S on
the endpoint slopes.  The two built-in constructions are the smoothed-max
family (log-sum-exp with shrinking smoothing) and the quadratic-penalty
family collapsing onto a constraint set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .convex import (ConvexFunction, Indicator, LogSumExp, MaxLinear,
                     SquaredDistance, slope)
from .errors import (ConfigError, DimensionMismatchError, OutsideDomainError,
                     as_point, frozen, malformed_input, real_array, real_number,
                     real_schedule, real_vectors, whole_number)
from .sets import ConvexRegion, contains

# member endpoint slopes may exceed the declared bound by this much
_SLOPE_SLACK = 1e-9
# a step of an eventually decreasing sequence may rise by this fraction
_DECREASE_SLACK = 0.05


def eventually_decreasing(values, window: int = 3) -> bool:
    """Audit that a sequence settles into decrease.

    Passes when each of the last `window` consecutive steps goes down, up to
    a multiplicative slack of 5% plus a 1e-12 absolute cushion.  Early
    entries may do anything, including +-inf; sequences shorter than two
    entries pass.  A window below 1 is a ConfigError.
    """
    window = whole_number(window, "window")
    vals = real_array(values, "values").ravel().tolist()
    if len(vals) < 2:
        return True
    k = min(window, len(vals) - 1)
    for a, b in zip(vals[-k - 1:], vals[-k:]):
        if not (b <= a * (1.0 + _DECREASE_SLACK) + 1e-12):
            return False
    return True


@dataclass(frozen=True)
class FamilyMember:
    """One function with its pair of endpoint anchors."""

    function: ConvexFunction
    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        d = self.function.dim
        start = frozen(as_point(self.start, d, "start"))
        end = frozen(as_point(self.end, d, "end"))
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "_slopes", (slope(self.function, start),
                                             slope(self.function, end)))

    @property
    def dim(self) -> int:
        return self.function.dim

    def endpoint_slopes(self) -> tuple[float, float]:
        """Slopes at start and end, computed once at construction."""
        return self._slopes


@dataclass(frozen=True)
class MoscoFamily:
    """Indexed members with a declared limit, modulus, and endpoint-slope bound.

    Construction validates that every member (and the limit) is at least
    uniform_lambda-convex, that member endpoint slopes stay within
    slope_bound_S, that the limit endpoints carry finite values, and that the
    endpoint drift |x_h,i - x_i| is eventually decreasing.
    """

    members: tuple[FamilyMember, ...]
    limit: FamilyMember
    uniform_lambda: float
    slope_bound_S: float
    label: str = "family"

    def __post_init__(self):
        with malformed_input("members"):
            members = tuple(self.members)
        if not members:
            raise ConfigError("a family needs at least one member")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "uniform_lambda",
                           real_number(self.uniform_lambda, "uniform_lambda"))
        object.__setattr__(self, "slope_bound_S",
                           real_number(self.slope_bound_S, "slope_bound_S"))

        d = self.limit.dim
        for h, mem in enumerate(members):
            if mem.dim != d:
                raise DimensionMismatchError(
                    f"member {h} has dimension {mem.dim}, limit has {d}")

        if self.slope_bound_S < 0:
            raise ConfigError("slope_bound_S must be nonnegative")

        for tag, mem in (("limit", self.limit),
                         *((f"member {h}", m) for h, m in enumerate(members))):
            if mem.function.lam < self.uniform_lambda - 1e-12:
                raise ConfigError(
                    f"{tag} has modulus {mem.function.lam}, below the declared "
                    f"uniform bound {self.uniform_lambda}")

        allowed = self.slope_bound_S + _SLOPE_SLACK * (1.0 + self.slope_bound_S)
        for h, mem in enumerate(members):
            for s in mem.endpoint_slopes():
                if not (s <= allowed):
                    raise ConfigError(
                        f"member {h} endpoint slope {s} exceeds the declared "
                        f"bound {self.slope_bound_S}")

        for which, x in (("start", self.limit.start), ("end", self.limit.end)):
            if not math.isfinite(self.limit.function.value(x)):
                raise OutsideDomainError(
                    f"limit {which} endpoint lies outside the effective domain")

        for which in ("start", "end"):
            if not eventually_decreasing(self.endpoint_drift(which)):
                raise ConfigError(
                    f"{which} endpoints do not settle toward the limit endpoint")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.limit.dim

    def endpoint_drift(self, which: str = "start") -> tuple[float, ...]:
        """Distances |x_h,i - x_i| in member order."""
        if which not in ("start", "end"):
            raise ConfigError("which must be 'start' or 'end'")
        target = getattr(self.limit, which)
        return tuple(float(np.linalg.norm(getattr(m, which) - target))
                     for m in self.members)


def permutation_vectors(points) -> np.ndarray:
    """Stack all coordinate-block permutations of the given points.

    points is (N, d); each output row is one permutation sigma laid out as
    the concatenation (p_{sigma(1)}, ..., p_{sigma(N)}), giving an
    (N!, N*d) array in lexicographic permutation order.
    """
    P = real_vectors(points, "points")
    n = P.shape[0]
    if n > 7:
        raise ConfigError("permutation families cap at 7 points (7! rows)")
    rows = [P[list(perm)].ravel() for perm in itertools.permutations(range(n))]
    return np.array(rows)


def _endpoint_slope_bound(members: tuple[FamilyMember, ...],
                          limit: FamilyMember) -> float:
    """Declared S: worst member endpoint slope, with the limit's doubled as
    numerical headroom (resolvent images of the endpoints can sit just past
    a kink of the limit)."""
    worst = 0.0
    for h, mem in enumerate(members):
        for s in mem.endpoint_slopes():
            if not math.isfinite(s):
                raise OutsideDomainError(
                    f"member {h} endpoint has infinite slope")
            worst = max(worst, s)
    for s in limit.endpoint_slopes():
        if not math.isfinite(s):
            raise OutsideDomainError("limit endpoint has infinite slope")
        worst = max(worst, 2.0 * s)
    return worst


def family_logsumexp_to_max(vectors, epsilons, x0, x1) -> MoscoFamily:
    """Smoothed-max members collapsing onto the max of linear forms.

    epsilons must decrease strictly toward (but not reach) zero; each member
    shares the limit's vectors and endpoints.  The modulus is 0 throughout.
    """
    eps = real_schedule(epsilons, "epsilons", -1)
    limit_f = MaxLinear(vectors)
    x0 = as_point(x0, limit_f.dim, "x0")
    x1 = as_point(x1, limit_f.dim, "x1")
    members = tuple(FamilyMember(LogSumExp(limit_f.vectors, e), x0, x1)
                    for e in eps)
    limit = FamilyMember(limit_f, x0, x1)
    return MoscoFamily(members, limit, 0.0,
                       _endpoint_slope_bound(members, limit), "logsumexp_to_max")


def family_penalty_to_indicator(region: ConvexRegion, penalties, x0, x1) -> MoscoFamily:
    """Quadratic distance penalties stiffening onto a constraint set.

    penalties must increase strictly; endpoints must belong to the region, so
    every member endpoint slope is zero and the declared bound S is 0.
    """
    pens = real_schedule(penalties, "penalties", 1)
    limit_f = Indicator(region)
    x0 = as_point(x0, limit_f.dim, "x0")
    x1 = as_point(x1, limit_f.dim, "x1")
    for name, x in (("x0", x0), ("x1", x1)):
        if not contains(region, x):
            raise OutsideDomainError(f"{name} must lie inside the region")
    members = tuple(FamilyMember(SquaredDistance(region, p), x0, x1)
                    for p in pens)
    limit = FamilyMember(limit_f, x0, x1)
    return MoscoFamily(members, limit, 0.0,
                       _endpoint_slope_bound(members, limit), "penalty_to_indicator")


def constant_family(f: ConvexFunction, x0, x1, size: int = 6) -> MoscoFamily:
    """Every member equals the limit; the baseline for gap-to-limit audits."""
    size = whole_number(size, "size")
    x0 = as_point(x0, f.dim, "x0")
    x1 = as_point(x1, f.dim, "x1")
    limit = FamilyMember(f, x0, x1)
    members = tuple(FamilyMember(f, x0, x1) for _ in range(size))
    return MoscoFamily(members, limit, f.lam,
                       _endpoint_slope_bound(members, limit), "constant")
