"""Exception types shared across the package, and the integer checks
that raise them."""

import numbers


class MonogamyLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MonogamyLabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class InvalidPartitionError(MonogamyLabError, ValueError):
    """A qubit partition is inconsistent with the register it addresses."""


class DimensionMismatchError(MonogamyLabError, ValueError):
    """Operands live on registers of incompatible dimension."""


class ContractViolationError(MonogamyLabError, ValueError):
    """An input or intermediate value violates a numerical contract."""


class ResourceCapError(MonogamyLabError, RuntimeError):
    """A request exceeds a size cap: the dense register caps, the
    symmetric-subspace cap, or the eigensolver's matrix-size cap."""


class ConfigError(MonogamyLabError, ValueError):
    """A run configuration is malformed."""


class ExtrapolationError(MonogamyLabError, ValueError):
    """A query lies outside the observed range of a calibration curve."""


class UndefinedScoreError(MonogamyLabError, ValueError):
    """A statistic is undefined for the given (degenerate) input."""


def is_integer(value) -> bool:
    """Whether value is an integer: numpy integers count, bools and floats do not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value) -> int:
    """value as an int; DomainError unless it is an integer >= 1 (bools and
    floats are refused, numpy integers accepted)."""
    if not is_integer(value) or value < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)
