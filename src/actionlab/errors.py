"""Exception types shared across the package, and the readers that turn a
caller's values into numbers or raise them.

Every public entry point reads its own inputs through these readers, so
callers (the serializers, the CLI) pass raw values through instead of
converting them first; each error names the input.  A parameter raises
ConfigError: `real_number` reads a finite (optionally positive) number,
`real_array` an array of numbers, `real_vector` a finite nonempty 1-D
vector, `real_vectors` a finite nonempty (m, d) vector set,
`real_schedule` a monotone sequence of positive numbers and `whole_number`
a count.  A point raises `DimensionMismatchError` for a wrong shape and
`OutsideDomainError` for a non-finite coordinate: `as_point` reads one
point, `real_points` a (k, d) batch.  `frozen` is the read-only float copy
every stored array is kept as.  A tau keeps its own check
(`InadmissibleTauError`).  `malformed_input` reports a missing key of a document, or a value of the
wrong type such as a number where a collection belongs, as a ConfigError.
"""

import contextlib
import math
import reprlib

import numpy as np


class ActionLabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(ActionLabError, ValueError):
    """Inputs disagree about the ambient dimension."""


class InadmissibleTauError(ActionLabError, ValueError):
    """Smoothing parameter violates tau > 0 and 1 + tau*lambda > 0."""


class OutsideDomainError(ActionLabError, ValueError):
    """A point lies outside the domain the operation requires."""


class SolverError(ActionLabError, RuntimeError):
    """An iterative solver stopped before reaching its target residual."""


class ConfigError(ActionLabError, ValueError):
    """Malformed configuration value or serialized document."""


@contextlib.contextmanager
def malformed_input(what: str):
    """Report a KeyError (a missing key), TypeError or ValueError (a
    non-numeric or ragged value) raised while reading `what` as a ConfigError
    naming it; errors of this package pass through."""
    try:
        yield
    except ActionLabError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} is missing {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} has a malformed value: {exc}") from None


def real_number(value, name: str, positive: bool = False) -> float:
    """value as a float, or a ConfigError unless it is a finite number (and
    > 0 when `positive` is set)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and (x > 0.0 or not positive)):
        raise ConfigError(f"{name} must be a {'positive ' if positive else ''}"
                          f"finite number, got {value!r}")
    return x


def real_array(value, name: str) -> np.ndarray:
    """value as a float array, or a ConfigError when it is not numeric or
    is ragged.  Finiteness and shape are the caller's to check."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an array of numbers, "
                          f"got {reprlib.repr(value)}") from None


def real_vector(value, name: str) -> np.ndarray:
    """value as a finite nonempty 1-D float array (a number is a vector of
    one entry), or a ConfigError."""
    arr = real_array(value, name)
    if arr.ndim == 0:
        arr = arr[None]
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be a finite nonempty 1-D vector")
    return arr


def real_vectors(value, name: str) -> np.ndarray:
    """value as a finite nonempty (m, d) float array, a 1-D array being m
    vectors of one entry each, or a ConfigError."""
    arr = real_array(value, name)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be a finite nonempty (m, d) array")
    return arr


def as_point(x, dim: int | None = None, name: str = "x") -> np.ndarray:
    """x as a finite 1-D float point (a number is a point of one coordinate),
    of dimension dim when given: a wrong shape raises DimensionMismatchError
    and a non-finite coordinate OutsideDomainError.  A float ndarray comes
    back as itself, not a copy."""
    arr = real_array(x, name)
    if arr.ndim == 0:
        arr = arr[None]
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-D point")
    if not np.all(np.isfinite(arr)):
        raise OutsideDomainError(f"{name} must be finite")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(f"{name} has dimension {arr.size}, expected {dim}")
    return arr


def real_points(X, dim: int) -> np.ndarray:
    """X as a (k, dim) batch of points (a 1-D X is one point), with the
    errors of `as_point`."""
    arr = real_array(X, "points")
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatchError(f"expected points of dimension {dim}")
    if not np.all(np.isfinite(arr)):
        raise OutsideDomainError("points must be finite")
    return arr


def frozen(arr) -> np.ndarray:
    """A read-only float copy of arr."""
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def real_schedule(values, name: str, order: int = 0) -> tuple[float, ...]:
    """values as a nonempty tuple of positive finite floats, strictly
    decreasing when order < 0 and increasing when order > 0, or a ConfigError."""
    out = tuple(real_number(v, name, positive=True)
                for v in real_array(values, name).ravel().tolist())
    if not out or order and any((b - a) * order <= 0.0 for a, b in zip(out, out[1:])):
        trend = "" if not order else f"strictly {'in' if order > 0 else 'de'}creasing "
        raise ConfigError(f"{name} must be a nonempty {trend}sequence, "
                          f"got {reprlib.repr(values)}")
    return out


def whole_number(value, name: str, least: int = 1) -> int:
    """value as an int, or a ConfigError unless it is a whole number of at
    least `least`."""
    try:
        n = int(value)
        ok = n == float(value) and n >= least
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a whole number >= {least}, got {value!r}")
    return n
