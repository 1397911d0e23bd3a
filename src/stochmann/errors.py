"""Typed errors shared across the package, and check_number, the one rule
for a valid scalar number or count, with its list forms check_numbers and
check_checkpoints.

The CLI maps these onto exit codes: ValidationError -> 2, the verification
failures (DominanceError, CoverageError, DivergedError) -> 3, and
InfeasibleExperimentError -> 4.
"""

from __future__ import annotations

import math
import numbers


class StochmannError(Exception):
    """Base class for package errors."""


class ValidationError(StochmannError):
    """Invalid configuration or argument; message names the offending field."""


class NonContractiveError(StochmannError):
    """A map (or its declared constant) fails the contraction requirement."""


class DivergedError(StochmannError):
    """An iterate left the representable range.

    last_finite_index is the largest 1-based iterate index whose coordinates
    were all finite; `replicas` lists the offending replica rows.
    """

    def __init__(self, message, last_finite_index=None, replicas=None):
        super().__init__(message)
        self.last_finite_index = last_finite_index
        self.replicas = replicas


class InfeasibleExperimentError(StochmannError):
    """The requested certificate needs more iterations than the cap allows.

    Carries the bound diagnostics so callers can report why.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CoverageError(StochmannError):
    """Empirical coverage fell below the certified level by more than
    the allowed sampling slack."""


class DominanceError(StochmannError):
    """An empirical tail estimate exceeded the certified bound."""


def check_number(value, path, integer=False, minimum=None, maximum=None,
                 exclusive_min=None, exclusive_max=None):
    """value as a float, or as an int when integer is set; anything else
    raises ValidationError naming path.  A number is a real, not a bool,
    whose float is finite (an int past the float64 range is not); integer
    takes 3.0 as 3 and refuses 2.5.  The bounds are compared with value
    itself, so a seed near 2**64 is not rounded first.
    """
    # exact float and int skip the numbers.Real ABC check, which is slow
    if type(value) not in (float, int) and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        x = math.nan
    else:
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
    if (math.isfinite(x) and (not integer or x.is_integer())
            and (minimum is None or value >= minimum)
            and (exclusive_min is None or value > exclusive_min)
            and (maximum is None or value <= maximum)
            and (exclusive_max is None or value < exclusive_max)):
        return int(value) if integer else x
    limits = " and ".join(f"{op} {bound}" for op, bound in (
        (">=", minimum), (">", exclusive_min), ("<=", maximum),
        ("<", exclusive_max)) if bound is not None)
    kind = "integer" if integer else "real"
    raise ValidationError(f"{path}: must be a finite {kind} {limits}".rstrip())


def check_numbers(values, path, **limits):
    """values, a nonempty list or tuple, as a tuple of check_number's results."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ValidationError(f"{path}: must be a nonempty list")
    return tuple(check_number(v, f"{path}[{i}]", **limits)
                 for i, v in enumerate(values))


def check_checkpoints(value, path):
    """value, a nonempty list or tuple of strictly increasing iterate
    indices >= 1, as a tuple of ints; else ValidationError naming path."""
    cps = check_numbers(value, path, integer=True, minimum=1)
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValidationError(f"{path}: must be strictly increasing")
    return cps
