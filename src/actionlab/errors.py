"""Exception types shared across the package, and the two input checks that
turn malformed values into them."""

import contextlib


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
