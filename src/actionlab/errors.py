"""Exception types shared across the package, and the readers that turn a
caller's values into numbers or raise them.

Every public entry point reads its own parameters: `real_number` for a
finite (optionally positive) number, `real_array` for an array of numbers,
`real_schedule` for a monotone sequence of positive numbers, `whole_number`
for a count.  Each raises a ConfigError naming the parameter, so callers
(the serializers, the CLI) pass raw values through instead of converting
them first.  A tau keeps its own check (`InadmissibleTauError`),
a non-finite point raises `OutsideDomainError` and a wrong shape
`DimensionMismatchError`.  `malformed_input` reports a missing key of a
document, or a value of the wrong type such as a number where a collection
belongs, as a ConfigError.
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
