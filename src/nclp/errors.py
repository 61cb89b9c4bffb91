"""Exception types shared across the toolkit, and :func:`_typed`, the one
reader of the entry-check declaration: ``nclp.__all__`` plus annotations."""

import cmath
import functools
import numbers
import typing

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


def _typed(target):
    """``target``, a function or a class (then its ``__init__``), checking
    each argument whose annotation is a class, or a list of one: DomainError
    "<argument> must be <Class>, got <type>" unless it is one.  ``bool`` is
    checked; numbers are left to :func:`_real`, which converts them."""
    if isinstance(target, type):
        target.__init__ = _typed(target.__init__)
        return target

    @functools.wraps(target)
    def checked(*args, **kwargs):
        names, classes = _classes(target)
        for name, value in (*zip(names, args), *kwargs.items()):
            kind, item, label = classes.get(name, (object, None, ""))
            bad = [value] if not isinstance(value, kind) else item and [
                v for v in value if not isinstance(v, item)]
            if bad:
                raise DomainError(f"{name} must be {label}, got "
                                  f"{type(bad[0]).__name__}")
        return target(*args, **kwargs)

    return checked


@functools.cache
def _classes(fn) -> tuple[tuple[str, ...], dict]:
    """fn's parameter names, in order, and the (class, list item class or
    False, label) that :func:`_typed` checks each annotated one against."""
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    classes = {}
    for name, hint in typing.get_type_hints(fn).items():
        item = typing.get_origin(hint) is list and typing.get_args(hint)[0]
        kind = item or hint
        if name in names and isinstance(kind, type) and (
                kind is bool or not issubclass(kind, numbers.Number)):
            classes[name] = (list if item else kind, item,
                             ("list of " if item else "") + kind.__name__)
    return names, classes


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
