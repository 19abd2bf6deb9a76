"""Exception types shared across the package."""

from __future__ import annotations


class DephkitError(Exception):
    """Base class for all library errors."""


class DimensionError(DephkitError):
    """Operands have incompatible or unsupported dimensions."""


class ValidationError(DephkitError):
    """A structured object failed one of its defining invariants.

    ``record`` is the failed ``linalg.Check``: the invariant's stable name, the
    measured value and the threshold it broke; ``check`` and ``value`` read it.
    """

    def __init__(self, record, message: str):
        super().__init__(message)
        self.record = record

    check = property(lambda self: self.record.name)
    value = property(lambda self: self.record.value)


class NotDephasingRealizationError(DephkitError):
    """An encode/decode/memory triple does not realize a dephasing superchannel.

    Carries the diagnostic report so callers can see which condition failed.
    """

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class DecompositionError(ValidationError):
    """No product decomposition fits the matrix within the requested tolerance.

    Its record is "product-decomposition": the entrywise fit error of the best
    closed-form candidate, which ``residual`` reads, against tol.
    """

    residual = property(lambda self: self.record.value)
