"""Exception types shared across the toolkit."""

import cmath

import numpy as np


class NclpError(Exception):
    """Base class for all toolkit errors."""


def _first_errors(codes: np.ndarray, make) -> dict:
    """The error map {row: (point, error)} of a stack's (B, G) codes,
    nonzero where a point fails: make(row, point) at each row's first."""
    if not codes.any():
        return {}
    return {j: (g, make(j, g)) for j in np.flatnonzero(codes.any(axis=1))
            .tolist() for g in [int(np.argmax(codes[j] != 0))]}


def _raise_pairwise(*error_maps) -> None:
    """Raise the error of the first row that fails, from the first error
    map that holds one for it."""
    failing = set().union(*error_maps)
    if failing:
        j = min(failing)
        raise next(errors[j][1] for errors in error_maps if j in errors)


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
    """``value`` as a float; DomainError unless it is a real number (text
    is not one)."""
    try:
        if isinstance(value, (str, bytes, bytearray)):
            raise TypeError("text is not a number")
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
