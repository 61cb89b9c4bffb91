"""Exception types shared across the toolkit."""

import cmath


class NclpError(Exception):
    """Base class for all toolkit errors."""


def _raise_first(outcomes):
    """The outcomes, after raising the first one that is an error."""
    for out in outcomes:
        if isinstance(out, NclpError):
            raise out
    return outcomes


class ShapeError(NclpError):
    """Operands live on different algebras or have nonconforming blocks."""


class DomainError(NclpError):
    """An input violates an operation's precondition (non-PSD, alpha=1, ...)."""


class ConditioningError(NclpError):
    """A solve exceeded its residual budget; carries the measured residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class FileFormatError(NclpError):
    """A matrix file failed structural or semantic validation."""


class OutputError(NclpError):
    """A report or matrix file could not be written."""


class UsageError(NclpError):
    """Bad command-line arguments or an unknown suite name."""


class CutoffError(UsageError, ValueError):
    """A kernel cutoff eps_rel that is not a positive finite number, whether
    it came from a flag, from NCLP_EPS_REL or from an API call."""


def _check_type(value, kind: type, message: str):
    """The DomainError "<message>, got <type>" unless value is a kind."""
    if not isinstance(value, kind):
        raise DomainError(f"{message}, got {type(value).__name__}")


def _real(value, name: str) -> float:
    """``value`` as a float; DomainError unless it is a real number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(
            f"{name} must be a real number, got {value!r}") from exc


def _finite_number(value, name: str) -> complex:
    """``value`` as a complex number; DomainError unless it is a finite
    number (text is not one)."""
    try:
        number = None if isinstance(value, str) else complex(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or not cmath.isfinite(number):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    return number
