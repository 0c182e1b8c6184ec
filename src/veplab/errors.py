"""Exception types shared across the package, and the finite-number check."""

import math


class VeplabError(Exception):
    """Base class for errors raised by veplab."""


class InputError(VeplabError):
    """Bad arguments, malformed files, or violated preconditions."""


class ParseError(InputError):
    """A file could not be parsed; the message names the offending row."""


class DegenerateDataError(VeplabError):
    """Numerically degenerate input (zero variance, zero error term, ...)."""


def check_finite_fields(obj, positive=(), non_negative=()) -> None:
    """Each named field of obj must be finite and > 0 (positive) or >= 0."""
    for name in (*positive, *non_negative):
        value = getattr(obj, name)
        strict = name in positive
        if not (math.isfinite(value) and (value > 0 if strict else value >= 0)):
            op = ">" if strict else ">="
            raise InputError(f"{name} must be finite and {op} 0, got {value}")
