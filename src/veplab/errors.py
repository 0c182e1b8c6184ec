"""Exception types shared across the package, and the checks that raise them."""

import math
from contextlib import contextmanager


class VeplabError(Exception):
    """Base class for errors raised by veplab."""


class InputError(VeplabError):
    """Bad arguments, malformed files, or violated preconditions."""


class ParseError(InputError):
    """A file could not be parsed; the message names the offending row."""


class DegenerateDataError(VeplabError):
    """Numerically degenerate input (zero variance, zero error term, ...)."""


@contextmanager
def located(where: str):
    """Re-raise an InputError or DegenerateDataError raised inside with the
    same type and where before its message."""
    try:
        yield
    except (InputError, DegenerateDataError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def check_finite(name: str, value, strict: bool = True):
    """value once it is finite and > 0 (strict) or >= 0; errors name name."""
    if not (math.isfinite(value) and (value > 0 if strict else value >= 0)):
        raise InputError(f"{name} must be finite and {'>' if strict else '>='} 0, got {value}")
    return value


def check_finite_fields(obj, positive=(), non_negative=()) -> None:
    """Each named field of obj must be finite and > 0 (positive) or >= 0."""
    for name in (*positive, *non_negative):
        check_finite(name, getattr(obj, name), strict=name in positive)
