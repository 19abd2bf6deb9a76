"""Exception types shared across the package."""

from __future__ import annotations


class DephkitError(Exception):
    """Base class for all library errors."""


class DimensionError(DephkitError):
    """Operands have incompatible or unsupported dimensions."""


class ValidationError(DephkitError):
    """A structured object failed one of its defining invariants.

    ``check`` is a stable machine-readable name of the violated invariant,
    ``value`` the measured deviation (when meaningful).
    """

    def __init__(self, check: str, message: str, value: float | None = None):
        super().__init__(message)
        self.check = check
        self.value = value


class NotDephasingRealizationError(DephkitError):
    """An encode/decode/memory triple does not realize a dephasing superchannel.

    Carries the diagnostic report so callers can see which condition failed.
    """

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class DecompositionError(DephkitError):
    """No product decomposition fits the matrix within the requested tolerance.

    ``residual`` is the entrywise fit error of the best closed-form candidate.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
