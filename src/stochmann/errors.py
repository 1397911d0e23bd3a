"""Typed errors shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2, the verification
failures (DominanceError, CoverageError, DivergedError) -> 3, and
InfeasibleExperimentError -> 4.
"""

from __future__ import annotations


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
