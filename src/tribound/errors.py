"""Exception taxonomy shared across the package.

Every error raised by the public API derives from TriboundError so callers can
catch the package's failures with a single except clause. Inconclusive monitor
verdicts are ordinary return values, not exceptions.
"""
from __future__ import annotations


class TriboundError(Exception):
    """Base class for all package errors."""


class SchemaError(TriboundError):
    """Config document cannot be parsed or contains unknown keys."""


class ValidationError(TriboundError):
    """Config values violate a structural invariant."""


class StructuralError(TriboundError):
    """Array shapes, dimensions, or value domains do not line up."""


class ModulationBoundError(TriboundError):
    """Modulation signal outside the admissible band."""


class UnboundedRegimeError(TriboundError):
    """Weight-decay coefficient is not negative, so no finite weight bound exists."""


class CalibrationError(TriboundError):
    """A seeded map has zero operator norm, so it cannot be calibrated."""


class EnforcementError(TriboundError):
    """A contract's enforcement mechanism exhausted its budget."""
