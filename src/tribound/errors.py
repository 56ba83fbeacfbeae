"""Exception taxonomy shared across the package.

Every error raised by the public API derives from TriboundError so callers can
catch the package's failures with a single except clause. Inconclusive monitor
verdicts are ordinary return values, not exceptions.
"""
from __future__ import annotations


class TriboundError(Exception):
    """Base class for all package errors."""


class ValidationError(TriboundError):
    """An input or a model quantity lies outside the admissible domain: a
    config document that cannot be parsed or names unknown keys, a value of
    the wrong type or range, a shape that does not line up, a modulation
    signal past its bound, a non-negative decay coefficient, or a seeded map
    that cannot be calibrated."""


class EnforcementError(TriboundError):
    """A contract's enforcement mechanism exhausted its budget."""
