"""Passive-versus-active memory analysis of dephasing superchannels.

A realization's memory is passive when the post-encoding memory state does
not depend on the system input; on the Gram matrix this forces every block
to carry a constant diagonal. For qubit superchannels the set realizable
with passive memory is exactly the set of mixtures of product Gram matrices,
and the l1 distance to it has the closed form implemented here, together
with an explicit nearest passive matrix and an exact product decomposition
(at most 9 terms, found by column generation) that certifies membership. A one-parameter qutrit family with its controlled-unitary
realization and a bundled experimental qubit matrix round out the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import GramMatrix, gram_matrix
from .errors import DecompositionError, DimensionError, ValidationError
from .io import bundled_data_path, read_matrix
from .linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    basis_vector,
    kron,
    max_abs,
    min_eig_hermitian,
    partial_transpose,
)
from .superchannels import ControlledUnitaryFamily, SuperGram, controlled_unitary_family, validate_super_gram


def l1_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise l1 distance sum_ij |a_ij - b_ij|."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


def _block_diagonals(sg: SuperGram) -> np.ndarray:
    """diag(block (i, j)) stacked as [i, j, m]."""
    d = sg.d
    out = np.empty((d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            out[i, j] = np.diag(sg.block(i, j))
    return out


def is_passive_compatible(sg: SuperGram, tol: float = DEFAULT_TOL) -> bool:
    """True iff every block of the Gram matrix has a constant diagonal within tol."""
    diags = _block_diagonals(sg)
    dev = np.abs(diags - diags.mean(axis=2, keepdims=True)).max()
    return bool(dev <= tol)


def memory_activity_qubit(sg: SuperGram) -> float:
    """Minimal l1 distance from a qubit superchannel to the passive-memory set.

    Closed form: twice the modulus of the difference of the two diagonal
    entries of the off-diagonal block.
    """
    if sg.d != 2:
        raise DimensionError(f"memory activity is implemented for d=2 only, got d={sg.d}")
    return float(2.0 * abs(sg.mat[0, 2] - sg.mat[1, 3]))


def nearest_passive_qubit(sg: SuperGram, tol: float = DEFAULT_TOL) -> SuperGram:
    """Closest passive-compatible Gram matrix in l1 distance.

    Applies the x-y plane projection to the second tensor factor, which
    replaces every block diagonal by its mean. Positivity of the result is
    inherited from separability of qubit superchannel Gram matrices.
    """
    if sg.d != 2:
        raise DimensionError(f"nearest passive matrix is implemented for d=2 only, got d={sg.d}")
    out = sg.mat.copy()
    for i in range(2):
        for j in range(2):
            blk = out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            mean = (blk[0, 0] + blk[1, 1]) / 2
            blk[0, 0] = mean
            blk[1, 1] = mean
    return validate_super_gram(out, 2, tol=tol)


def ppt_min_eig(
    sg: SuperGram | np.ndarray, dims: tuple[int, int] | None = None, tol: float = DEFAULT_TOL
) -> float:
    """Smallest eigenvalue of the partial transpose over the second factor.

    A negative value certifies entanglement of the normalized matrix; for a
    2x2 factorization nonnegativity certifies separability. A matrix further
    than ``tol`` from Hermitian raises ValidationError ("hermitian").
    """
    if isinstance(sg, SuperGram):
        mat = sg.mat
        dims = dims or (sg.d, sg.d)
    else:
        mat = as_complex_matrix(sg)
        if dims is None:
            raise DimensionError("dims required when the input is a raw matrix")
    return min_eig_hermitian(partial_transpose(mat, dims, "second"), hermiticity_tol=tol)


# ---------------------------------------------------------------------------
# Product decomposition (qubit passive realizations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductTerm:
    weight: float
    c1: GramMatrix
    c2: GramMatrix


@dataclass(frozen=True)
class ProductDecomposition:
    """Convex mixture sum_i q_i C1_i ⊗ C2_i reconstructing a Gram matrix."""

    terms: tuple[ProductTerm, ...]
    residual: float

    def reconstruct(self) -> np.ndarray:
        return sum(t.weight * kron(t.c1.mat, t.c2.mat) for t in self.terms)

    def total_weight(self) -> float:
        return float(sum(t.weight for t in self.terms))


def _circle_gram(theta: float) -> np.ndarray:
    """2x2 Gram matrix of a pure state on the equator of the Bloch x-y plane."""
    return np.array([[1.0, np.exp(-1j * theta)], [np.exp(1j * theta), 1.0]])


def _product_column(theta: float, phi: float) -> np.ndarray:
    m = kron(_circle_gram(theta), _circle_gram(phi)).ravel()
    return np.concatenate([m.real, m.imag])


# Entry ((a, c), (b, d)) of C(theta) ⊗ C(phi) is exp(i(a-b)theta) exp(i(c-d)phi).
# Row 3(p+1) + (q+1) of this map sums the entries whose exponents are (p, q).
_EXPONENT_SUMS = np.array(
    [[float(3 * (a - b + 1) + (c - d + 1) == row) for a, c, b, d in np.ndindex(2, 2, 2, 2)] for row in range(9)]
)

# An atom C(theta) ⊗ C(phi) has Frobenius norm 4, so the score Re<R, atom>
# carries rounding of about 1e-16 * 4 ||target||. A best score below
# _NO_GAIN_RTOL * 4 ||target|| is taken as "no product atom improves the fit".
_NO_GAIN_RTOL = 1e-13
# Column generation adds one atom per round; the optimum needs at most 9, and
# NNLS gives the atoms that later ones supersede zero weight.
_MAX_ROUNDS = 100
# Newton converges quadratically from the ~1e-8 accurate root candidate.
_NEWTON_STEPS = 4


def _trig(coef: np.ndarray, theta, derivative: int = 0):
    """sum_k (ik)^derivative coef_k e^{ik theta} for k = -n..n."""
    k = np.arange(coef.size) - coef.size // 2
    return np.exp(1j * np.multiply.outer(theta, k)) @ (coef * (1j * k) ** derivative)


def _best_atom(rest: np.ndarray) -> tuple[float, float, float]:
    """Product atom (theta, phi) maximizing Re<rest, C(theta) ⊗ C(phi)>, and that score.

    The score is A(theta) + Re(B(theta) e^{i phi}) with A, B degree-1
    trigonometric polynomials, so the best phi is -arg B(theta) and
    f = A + |B| remains. Squaring f' = 0, i.e. 2|B| A' = -(|B|^2)', gives
    Q = 4 |B|^2 f' g' = 0 with g = A - |B|: a degree-4 trigonometric
    (degree-8 algebraic) polynomial whose roots hold every stationary point
    of f, unless g is constant (a product target), where f = 2A + const
    peaks at -arg a_1. Near such targets, or where squaring makes the
    maximizer a double root, np.roots resolves it only to about the square
    root of machine precision, so the best candidate is polished by Newton
    steps on f.
    """
    s = (_EXPONENT_SUMS @ rest.conj().ravel()).reshape(3, 3)  # s[p + 1, q + 1]
    a = (s[:, 1] + s[::-1, 1].conj()) / 2  # A(theta) = sum_p a_p e^{ip theta}, real
    b = s[:, 2] + s[::-1, 0].conj()  # B(theta) = sum_p b_p e^{ip theta}
    bb = np.convolve(b, b[::-1].conj())  # |B|^2
    da = a * 1j * np.arange(-1, 2)
    dbb = bb * 1j * np.arange(-2, 3)
    q = 4 * np.convolve(np.convolve(da, da), bb) - np.convolve(dbb, dbb)
    thetas = np.concatenate([np.angle(np.roots(q[::-1])), [-np.angle(a[2]), 0.0]])

    def f(theta):
        return _trig(a, theta).real + np.abs(_trig(b, theta))

    theta = thetas[np.argmax(f(thetas))]
    for _ in range(_NEWTON_STEPS):
        bv, db, d2b = (_trig(b, theta, n) for n in range(3))
        mod = abs(bv)
        if mod == 0:
            break
        dmod = (bv.conjugate() * db).real / mod
        df = _trig(a, theta, 1).real + dmod
        d2f = _trig(a, theta, 2).real + (abs(db) ** 2 + (bv.conjugate() * d2b).real - dmod**2) / mod
        if not d2f < 0 or f(theta - df / d2f) < f(theta):
            break
        theta = theta - df / d2f
    theta = float(np.mod(theta, 2 * np.pi))
    phi = float(np.mod(-np.angle(_trig(b, theta)), 2 * np.pi))
    return theta, phi, float(f(theta))


def decompose_product_qubit(sg: SuperGram, tol: float = DEFAULT_TOL) -> ProductDecomposition:
    """Decompose a passive-compatible qubit Gram matrix into product terms.

    Column generation over nonnegative least squares: the weights of the
    atoms found so far, products C(theta) ⊗ C(phi) of equatorial 2x2 Gram
    matrices, are refit by NNLS, and the atom that best matches the residual
    is found exactly (see ``_best_atom``) and added, until the entrywise
    residual is at most ``tol``. The result has at most 9 terms, the
    Carathéodory bound for the 9-dimensional span of the atoms. Raises
    DecompositionError with the residual when no atom improves the fit (the
    matrix is not a product mixture within ``tol``) or after ``_MAX_ROUNDS``
    atoms.
    """
    from scipy.optimize import nnls  # the package's only scipy use: keep it off every import path

    if sg.d != 2:
        raise DimensionError(f"product decomposition is implemented for d=2 only, got d={sg.d}")
    if not is_passive_compatible(sg, tol):
        raise ValidationError(
            "passive-compatibility",
            "Gram matrix has a block with non-constant diagonal; no passive realization exists",
        )

    target = sg.mat
    b = np.concatenate([target.real.ravel(), target.imag.ravel()])
    no_gain = _NO_GAIN_RTOL * 4 * np.linalg.norm(b)
    atoms: list[tuple[float, float]] = []
    columns = np.empty((32, 0))
    weights = np.empty(0)
    rest = target
    while (residual := max_abs(rest)) > tol:
        if len(atoms) == _MAX_ROUNDS:
            raise DecompositionError(
                f"product decomposition stopped after {len(atoms)} atoms at residual {residual:.3e} > {tol:.1e}",
                residual,
            )
        theta, phi, score = _best_atom(rest)
        if score <= no_gain:
            raise DecompositionError(
                f"product decomposition stalled at residual {residual:.3e} > {tol:.1e}: "
                "no product atom improves the fit",
                residual,
            )
        atoms.append((theta, phi))
        columns = np.column_stack([columns, _product_column(theta, phi)])
        weights, _ = nnls(columns, b)
        fit = columns @ weights
        rest = target - (fit[:16] + 1j * fit[16:]).reshape(4, 4)

    terms = tuple(
        ProductTerm(
            weight=float(w),
            c1=gram_matrix(_circle_gram(th)),
            c2=gram_matrix(_circle_gram(ph)),
        )
        for w, (th, ph) in zip(weights, atoms)
        if w > 0
    )
    return ProductDecomposition(terms=terms, residual=residual)


# ---------------------------------------------------------------------------
# Qutrit family with an explicit controlled-unitary realization
# ---------------------------------------------------------------------------


def _check_disk(alpha: complex, beta: complex) -> tuple[complex, complex]:
    alpha, beta = complex(alpha), complex(beta)
    if abs(alpha) > 1 + 1e-12 or abs(beta) > 1 + 1e-12:
        raise ValidationError(
            "unit-disk", f"parameters must lie in the unit disk, got |a|={abs(alpha)}, |b|={abs(beta)}"
        )
    return alpha, beta


def family_gram(alpha: complex, beta: complex, tol: float = DEFAULT_TOL) -> SuperGram:
    """Qutrit superchannel family: identity diagonal blocks, a single alpha
    coupling in block (0, 1) at entry (2, 0) and a single beta coupling in
    block (0, 2) at entry (0, 0); validated at tol."""
    alpha, beta = _check_disk(alpha, beta)
    mat = np.eye(9, dtype=complex)
    mat[2, 3] = alpha
    mat[3, 2] = np.conj(alpha)
    mat[0, 6] = beta
    mat[6, 0] = np.conj(beta)
    return validate_super_gram(mat, 3, tol=tol)


def family_ppt_closed_form(alpha: complex, beta: complex) -> float:
    """Smallest partial-transpose eigenvalue of the family: 1 - sqrt(|a|^2 + |b|^2)."""
    alpha, beta = _check_disk(alpha, beta)
    return float(1.0 - np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2))


def _permutation_on_second(d: int, a: int, b: int) -> np.ndarray:
    """I_d ⊗ (transposition of basis states a and b) on the d*d memory."""
    perm = np.eye(d, dtype=complex)
    perm[[a, b]] = perm[[b, a]]
    return kron(np.eye(d), perm)


def _complete_unitary(columns: dict[int, np.ndarray], dim: int) -> np.ndarray:
    """Fill unconstrained columns by Gram-Schmidt over the canonical basis.

    Deterministic: candidate vectors are taken in canonical order, so two
    calls with the same constraints produce identical matrices.
    """
    u = np.zeros((dim, dim), dtype=complex)
    ortho: list[np.ndarray] = []
    for col, vec in columns.items():
        u[:, col] = vec
        ortho.append(vec)
    free = [c for c in range(dim) if c not in columns]
    filled: list[np.ndarray] = []
    for cand in range(dim):
        if len(filled) == len(free):
            break
        v = basis_vector(cand, dim)
        for _ in range(2):  # re-orthogonalize once for numerical stability
            for w in ortho:
                v = v - w * np.vdot(w, v)
        norm = np.linalg.norm(v)
        if norm > 1e-7:
            v = v / norm
            ortho.append(v)
            filled.append(v)
    for col, vec in zip(free, filled):
        u[:, col] = vec
    return u


def family_realization(
    alpha: complex, beta: complex, tol: float = DEFAULT_TOL
) -> tuple[ControlledUnitaryFamily, ControlledUnitaryFamily]:
    """Controlled-unitary circuit whose Gram matrix is family_gram(alpha, beta),
    each unitary checked within tol.

    The pre-processing family permutes the memory so the k-th branch prepares
    |0 k>; the post-processing family maps the prepared states onto the vector
    system {psi_ik}: all products |i k> except psi_10 and psi_20, which mix in
    the alpha and beta couplings. Columns not pinned by those mappings are
    completed deterministically.
    """
    alpha, beta = _check_disk(alpha, beta)
    d = 3

    def e(a: int, b: int) -> np.ndarray:
        return basis_vector(a * d + b, d * d)

    pre = controlled_unitary_family(
        [np.eye(9, dtype=complex), _permutation_on_second(d, 0, 1), _permutation_on_second(d, 0, 2)],
        tol=tol,
    )

    psi_10 = np.conj(alpha) * e(0, 2) + np.sqrt(1 - abs(alpha) ** 2) * e(1, 0)
    psi_20 = np.conj(beta) * e(0, 0) + np.sqrt(1 - abs(beta) ** 2) * e(2, 0)
    v1 = _complete_unitary({0: psi_10, 1: e(1, 1), 2: e(1, 2)}, 9)
    v2 = _complete_unitary({0: psi_20, 1: e(2, 1), 2: e(2, 2)}, 9)
    post = controlled_unitary_family([np.eye(9, dtype=complex), v1, v2], tol=tol)
    return pre, post


# ---------------------------------------------------------------------------
# Bundled experimental data
# ---------------------------------------------------------------------------

# The bundled matrix is the Gram matrix of the dephasing noise reconstructed
# from a published NMR gate-tomography experiment. Its entries carry three
# decimals, the precision of the published values, and that rounding limits
# how sharply the invariants can hold.
NMR_VALIDATION_TOL = 5e-3
NMR_ACTIVITY = 0.625
NMR_ACTIVITY_TOL = 5e-4


def nmr_experimental_matrix() -> np.ndarray:
    """The bundled experimental matrix, read from data/nmr_gram.json."""
    return read_matrix(bundled_data_path("nmr_gram.json"))


def nmr_experimental_gram() -> SuperGram:
    """The bundled experimental qubit superchannel, validated at the data's precision."""
    return validate_super_gram(nmr_experimental_matrix(), 2, tol=NMR_VALIDATION_TOL)
