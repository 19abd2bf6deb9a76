"""Dense complex matrix kernel.

Everything downstream runs on plain ``numpy`` arrays of ``complex128``.
Composite (bipartite) indices are flattened row-major throughout the
package: the pair ``(a, b)`` with ``b`` ranging over ``dim_b`` maps to
``a * dim_b + b``, matching ``numpy.kron`` ordering.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import isqrt
from typing import Literal

import numpy as np

from .errors import DimensionError, ValidationError

DEFAULT_TOL = 1e-9

Which = Literal["first", "second"]


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array, rejecting NaN/Inf entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        bad = int((~np.isfinite(arr)).sum())
        raise ValidationError("finite-entries", f"matrix contains {bad} NaN or Inf entries", bad)
    return arr


def readonly_copy(m: np.ndarray) -> np.ndarray:
    """Defensive copy with the write flag cleared, for arrays held by value types."""
    out = np.array(m)
    out.setflags(write=False)
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†) / 2."""
    return (m + dagger(m)) / 2


def basis_vector(i: int, d: int) -> np.ndarray:
    e = np.zeros(d, dtype=complex)
    e[i] = 1.0
    return e


def basis_matrix(i: int, j: int, d: int) -> np.ndarray:
    """Matrix unit |i><j| of side d."""
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor as the major index."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def schur(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise (Schur/Hadamard) product of two equal-shape matrices."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch for Schur product: {a.shape} vs {b.shape}")
    return a * b


def _split_square(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    da, db = dims
    if da < 1 or db < 1:
        raise DimensionError(f"factor dimensions must be >= 1, got {dims}")
    m = as_complex_matrix(m)
    if m.shape != (da * db, da * db):
        raise DimensionError(f"expected square side {da}*{db}={da * db}, got shape {m.shape}")
    return m.reshape(da, db, da, db)


def partial_trace(m: np.ndarray, dims: tuple[int, int], which: Which = "second") -> np.ndarray:
    """Trace out one tensor factor of a square matrix on a (dims[0] x dims[1]) space."""
    m4 = _split_square(m, dims)
    if which == "first":
        return np.trace(m4, axis1=0, axis2=2)
    if which == "second":
        return np.trace(m4, axis1=1, axis2=3)
    raise ValueError(f"which must be 'first' or 'second', got {which!r}")


def partial_transpose(m: np.ndarray, dims: tuple[int, int], which: Which = "second") -> np.ndarray:
    """Transpose one tensor factor; involutive."""
    m4 = _split_square(m, dims)
    da, db = dims
    if which == "first":
        out = m4.transpose(2, 1, 0, 3)
    elif which == "second":
        out = m4.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    return out.reshape(da * db, da * db)


def reshuffle(m: np.ndarray, d: int | None = None) -> np.ndarray:
    """Reorder entries of a d^2 x d^2 matrix: out[(i,j),(k,l)] = m[(i,k),(j,l)].

    This is the involution relating a channel's superoperator to d times its
    Jamiolkowski state.
    """
    m = as_complex_matrix(m)
    side = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"reshuffle needs a square matrix, got {m.shape}")
    if d is None:
        d = round(side**0.5)
    if d * d != side:
        raise DimensionError(f"side {side} is not the square of d={d}")
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(side, side)


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude; 0 for empty input."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


# Measure layer: each named invariant is measured by one function, as a finite
# deviation that passes a check at tolerance tol when it is <= tol. Validators
# raise from ``require``; the CLI renders ``measure``.


def _unit_diagonal(m: np.ndarray) -> float:
    return max_abs(np.diag(m) - 1.0)


def _hermitian(m: np.ndarray) -> float:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"Hermiticity is defined for square matrices, got {m.shape}")
    return max_abs(m - dagger(m))


def _psd(m: np.ndarray) -> float:
    """-λ_min of the Hermitian part, negative when m is positive definite; measured after "hermitian",
    which refuses a non-square m."""
    return -float(np.linalg.eigvalsh(hermitize(m))[0])


def _unit_trace(m: np.ndarray) -> float:
    return float(abs(np.trace(m) - 1.0))


def _equal_diagonal_blocks(m: np.ndarray) -> float:
    """Largest entry difference between a d x d diagonal block of a d^2 x d^2 matrix and the first."""
    d = isqrt(m.shape[0])
    c00 = m[:d, :d]
    return max(max_abs(m[i * d : (i + 1) * d, i * d : (i + 1) * d] - c00) for i in range(d))


def _trace_preserving(kraus) -> float:
    """max |sum K†K - I| over a sequence of Kraus operators."""
    return max_abs(sum(dagger(k) @ k for k in kraus) - np.eye(kraus[0].shape[1]))


def _jamiolkowski_tp(jam: np.ndarray) -> float:
    """max |Tr_1 J - I/d| of a d^2 x d^2 Jamiolkowski matrix."""
    d = isqrt(jam.shape[0])
    return max_abs(partial_trace(jam, (d, d), "first") - np.eye(d) / d)


# check name -> (deviation, what the error message says deviates)
_CHECKS = {
    "unit-diagonal": (_unit_diagonal, "diagonal deviates from 1 by"),
    "hermitian": (_hermitian, "deviation from Hermitian is"),
    "psd": (_psd, "smallest eigenvalue lies below 0 by"),
    "unit-trace": (_unit_trace, "trace deviates from 1 by"),
    "equal-diagonal-blocks": (_equal_diagonal_blocks, "diagonal blocks differ by"),
    "trace-preserving": (_trace_preserving, "sum K†K deviates from identity by"),
    "jamiolkowski-tp": (_jamiolkowski_tp, "Tr_1 J deviates from I/d by"),
    "unitary": (lambda u: _trace_preserving((u,)), "deviation from unitarity is"),  # u†u = I
}
# The same invariants, named for the transformed Jamiolkowski states they are checked on.
_CHECKS["jamiolkowski-hermitian"] = _CHECKS["hermitian"]
_CHECKS["jamiolkowski-psd"] = _CHECKS["psd"]
_CHECKS["superchannel-output-tp"] = _CHECKS["jamiolkowski-tp"]


def measure(x, checks: Iterable[str]) -> dict[str, float]:
    """Deviation of x from each named invariant, in the order given."""
    return {name: _CHECKS[name][0](x) for name in checks}


def violation(deviations: Mapping[str, float], tol: float, subject: str = "matrix") -> ValidationError | None:
    """The error for the first deviation above tol, or None when every check passes."""
    for name, value in deviations.items():
        if value > tol:
            return ValidationError(name, f"{subject}: {_CHECKS[name][1]} {value:.3e} > {tol:.3e}", value)
    return None


def require(x, checks: Iterable[str], tol: float, subject: str = "matrix") -> dict[str, float]:
    """Measure x; raise the ValidationError of the first check above tol, else return the deviations."""
    deviations = measure(x, checks)
    if (exc := violation(deviations, tol, subject)) is not None:
        raise exc
    return deviations


def min_eig_hermitian(m: np.ndarray, hermiticity_tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of (m + m†)/2; rejects visibly non-Hermitian input."""
    m = as_complex_matrix(m)
    require(m, ("hermitian",), hermiticity_tol)
    return -_psd(m)


def is_psd(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff m is Hermitian within tol and its smallest eigenvalue is >= -tol."""
    return violation(measure(as_complex_matrix(m), ("hermitian", "psd")), tol) is None


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary (QR of a Ginibre matrix, phases fixed)."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
