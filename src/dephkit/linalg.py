"""Dense complex matrix kernel.

Everything downstream runs on plain ``numpy`` arrays of ``complex128``.
Composite (bipartite) indices are flattened row-major throughout the
package: the pair ``(a, b)`` with ``b`` ranging over ``dim_b`` maps to
``a * dim_b + b``, matching ``numpy.kron`` ordering.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import isqrt
from typing import Literal, NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError

DEFAULT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)

Which = Literal["first", "second"]


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array, rejecting NaN/Inf entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        require(arr, ("finite-entries",), 0)
    return arr


def readonly_copy(m: np.ndarray) -> np.ndarray:
    """Defensive copy with the write flag cleared, for arrays held by value types."""
    out = np.array(m)
    out.setflags(write=False)
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix, for a stack of matrices."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†) / 2, of each matrix for a stack."""
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


def partial_transpose(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the second tensor factor; involutive."""
    da, db = dims
    return _split_square(m, dims).transpose(0, 3, 2, 1).reshape(da * db, da * db)


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude; 0 for empty input."""
    return float(np.abs(m).max(initial=0.0))


# Measure layer: each named invariant is measured by one function, as a finite
# deviation that ``measure`` records with its tolerance in a ``Check``, which
# passes when the deviation is <= tol. Every refusal is a failed record raised
# by ``enforce``, and ``require`` is ``measure`` plus ``enforce``; the CLI
# renders the records. The matrix invariants also take a stack of
# matrices (..., k, k), and measure its worst member.


def _unit_diagonal(m: np.ndarray) -> float:
    return max_abs(np.diagonal(m, axis1=-2, axis2=-1) - 1.0)


def _hermitian(m: np.ndarray) -> float:
    if m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"Hermiticity is defined for square matrices, got {m.shape}")
    return max_abs(m - dagger(m))


def _psd(m: np.ndarray) -> float:
    """-λ_min of the Hermitian part, negative when m is positive definite; measured after "hermitian",
    which refuses a non-square m. An empty stack or a 0 x 0 matrix reads -inf."""
    return -float(np.linalg.eigvalsh(hermitize(m))[..., :1].min(initial=np.inf))


def _unit_trace(m: np.ndarray) -> float:
    return max_abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)


def _equal_diagonal_blocks(m: np.ndarray) -> float:
    """Largest entry difference between a d x d diagonal block of a d^2 x d^2 matrix and the first."""
    d = isqrt(m.shape[0])
    blocks = np.einsum("ikil->ikl", m.reshape(d, d, d, d))
    return max_abs(blocks - blocks[0])


def _kraus_tp(kraus) -> float:
    """max |sum K†K - I| over a sequence of Kraus operators."""
    return max_abs(sum(dagger(k) @ k for k in kraus) - np.eye(kraus[0].shape[-1]))


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
    "trace-preserving": (_kraus_tp, "sum K†K deviates from identity by"),
    "jamiolkowski-tp": (_jamiolkowski_tp, "Tr_1 J deviates from I/d by"),
    "unitary": (lambda u: _kraus_tp((u,)), "deviation from unitarity is"),  # u†u = I
    "finite-entries": (lambda m: np.count_nonzero(~np.isfinite(m)), "count of NaN or Inf entries is"),
}


class Check(NamedTuple):
    """One line of a verdict: a named value against its threshold, or a fact with none.

    A check with a threshold passes when value <= threshold, so a NaN fails; a
    fact (threshold None) always passes. The measure layer makes these records,
    the engine and the CLI pass them on unchanged, and ``name`` is the stable
    check name. A named tuple, not a dataclass, because the hot paths make
    several per call and a named tuple is built in less than half the time.
    """

    name: str
    value: object
    threshold: float | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.threshold is None or bool(self.value <= self.threshold)


def check_tol(tol: float) -> None:
    """Refuse a NaN or negative tolerance; inf passes every finite deviation."""
    if not tol >= 0:
        raise ValueError(f"tolerance must be a nonnegative number, got {tol!r}")


def measure(x, checks: Iterable[str], tol: float) -> tuple[Check, ...]:
    """One Check of x's deviation from each named invariant against tol, in the order given.

    Raises ValueError for a NaN or negative tol.
    """
    check_tol(tol)
    return tuple([Check(name, _CHECKS[name][0](x), tol) for name in checks])


def enforce(record: Check, subject: str, what: str = "") -> None:
    """Raise a failed record (a NaN value fails) as a ValidationError that carries it.

    Its message is "{subject}: {what} {value:.3e} > {threshold:.3e}", ``what`` by default the check's wording."""
    if not record.passed:
        what = what or _CHECKS[record.name][1]
        raise ValidationError(record, f"{subject}: {what} {record.value:.3e} > {record.threshold:.3e}")


def require(x, checks: Iterable[str], tol: float, subject: str = "matrix") -> tuple[Check, ...]:
    """Measure x; raise the ValidationError of the first check above tol, else return the checks."""
    records = measure(x, checks, tol)
    for c in records:
        enforce(c, subject)
    return records


def min_eig_hermitian(m: np.ndarray, hermiticity_tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of (m + m†)/2; rejects visibly non-Hermitian input."""
    m = as_complex_matrix(m)
    require(m, ("hermitian",), hermiticity_tol)
    return -_psd(m)


def psd_factors(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of the Hermitian part H of m, and a factor F of H.

    F has one column sqrt(λ) v per eigenpair (λ, v) with λ > n·eps·max(λ_max, 0),
    the rank rule of ``numpy.linalg.matrix_rank``, in ascending order of λ, so
    F F† = H but for the eigenvalues at or below that cutoff.
    """
    vals, vecs = np.linalg.eigh(hermitize(m))
    first = int(vals.searchsorted(m.shape[0] * _EPS * max(float(vals[-1]), 0.0), "right"))  # vals ascend
    return float(vals[0]), vecs[:, first:] * np.sqrt(vals[first:])


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary (QR of a Ginibre matrix, phases fixed)."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
