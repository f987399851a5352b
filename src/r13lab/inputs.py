"""The one policy for the numbers the package accepts (DECISIONS.md D26).

Each check returns the value in the form its caller computes with, or
raises a ValueError that names it.  A bool is never a number, and only
`real`, for values read from YAML, parses a string.
"""

import contextlib
import math
import numbers
import sys


def count(value, name: str, minimum: int):
    """value, an integer (not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return value


def real(raw, name: str) -> float:
    """raw as a finite float: from a number or a string that float() reads,
    never from a bool.  An int beyond the float range fails here too."""
    value = math.nan
    if isinstance(raw, (numbers.Real, str)) and not isinstance(raw, bool):
        with contextlib.suppress(ValueError, OverflowError):
            value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {raw!r}")
    return value


def positive(value, name: str) -> float:
    """value as a float: a real number, not a bool or a string, between the
    smallest normal float and the largest float, so that its reciprocal is
    finite too.  The bounds are compared before the conversion, so an int
    beyond the float range fails here."""
    low, high = sys.float_info.min, sys.float_info.max
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not low <= value <= high:
        raise ValueError(f"{name} must be positive and finite, at least {low!r}, got {value!r}")
    return float(value)
