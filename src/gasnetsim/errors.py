"""Exception types shared across the package, and the positivity and id checks."""

import math


class GasnetError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GasnetError):
    """Invalid parameters, topology, or file content."""


class FormatError(ConfigurationError):
    """Malformed input file (syntax or semantic), with location/id context."""


class StateError(GasnetError):
    """Physically inadmissible state (non-positive density, non-finite values)."""


class InfeasibleFlowError(GasnetError):
    """Requested steady flow cannot be sustained by the pipe (pressure would vanish)."""


class FactorizationError(GasnetError):
    """Linear solve inside Newton failed (singular Jacobian).

    Raised by Newton, it carries the best iterate seen, as
    NonconvergenceError does.
    """

    def __init__(self, message, x_best=None):
        super().__init__(message)
        self.x_best = x_best


def require_positive(what: str, value) -> None:
    """Raise ConfigurationError unless value is finite and positive (NaN is not)."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{what} must be finite and positive, got {value!r}")


def require_column_id(what: str, ident: str) -> None:
    """Raise ConfigurationError if ident, which names CSV columns, holds a ',' or a line
    break, or is not UTF-8 text (a lone surrogate, which JSON can spell)."""
    if any(ch in ident for ch in ",\n\r"):
        raise ConfigurationError(f"{what} {ident!r}: an id names CSV columns and must not "
                                 "contain ',', '\\n' or '\\r'")
    try:
        ident.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigurationError(f"{what} {ident!r}: an id names CSV columns and must be "
                                 "UTF-8 text") from None


class NonconvergenceError(GasnetError):
    """Newton iteration did not reach tolerance.

    Carries the best iterate seen and the residual-norm history so callers
    can diagnose or restart.
    """

    def __init__(self, message, x_best=None, history=None, time=None):
        super().__init__(message)
        self.x_best = x_best
        self.history = list(history) if history is not None else []
        self.time = time
