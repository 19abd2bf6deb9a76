"""Passive-versus-active memory analysis of dephasing superchannels.

A realization's memory is passive when the post-encoding memory state does
not depend on the system input; on the Gram matrix this forces every block
to carry a constant diagonal. For qubit superchannels the set realizable
with passive memory is exactly the set of mixtures of product Gram matrices,
and the l1 distance to it has the closed form implemented here, together
with an explicit nearest passive matrix and an exact product decomposition
that certifies membership: at most 8 terms, read off in closed form. A
full-rank matrix is certified by a dilation of a 2x2 contraction into two
unitaries, in scalar arithmetic; a rank-deficient one, or one whose dilation
loses accuracy, by one factorization of the matrix and the eigenbasis of a
unitary. A matrix whose block diagonals are constant only to within the
tolerance is certified from their average, and one that the closed form does
not fit within the tolerance is refused. A one-parameter qutrit family and a
bundled experimental qubit matrix round out the module.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, DimensionError
from .io import bundled_data_path, read_matrix
from .linalg import (
    DEFAULT_TOL,
    Check,
    as_complex_matrix,
    check_tol,
    enforce,
    hermitize,
    kron,
    max_abs,
    min_eig_hermitian,
    partial_transpose,
    psd_factors,
    require,
)
from .superchannels import SuperGram, validate_super_gram


def l1_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise l1 distance sum_ij |a_ij - b_ij|."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


def _passive_projection(sg: SuperGram) -> tuple[np.ndarray, float]:
    """The Gram matrix with every block diagonal replaced by its mean, and the largest entry that moved.

    Averaging the diagonal of each d x d block is the projection onto the
    matrices with constant block diagonals; the distance moved is the passive
    deviation.
    """
    d = sg.d
    averaged = sg.mat.copy()
    diags = np.einsum("ikjk->ijk", averaged.reshape(d, d, d, d))  # a writable view of diag(block (i, j)) as [i, j, k]
    diags[...] = diags.mean(axis=2, keepdims=True)
    return averaged, max_abs(sg.mat - averaged)


def is_passive_compatible(sg: SuperGram, tol: float = DEFAULT_TOL) -> bool:
    """True iff every block of the Gram matrix has a constant diagonal within tol."""
    check_tol(tol)
    return _passive_projection(sg)[1] <= tol


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

    Replaces the diagonal of every 2x2 block by its mean
    (``_passive_projection``); on the second tensor factor this projects
    Bloch vectors onto the x-y plane. Positivity of the result is inherited
    from separability of qubit superchannel Gram matrices.
    """
    if sg.d != 2:
        raise DimensionError(f"nearest passive matrix is implemented for d=2 only, got d={sg.d}")
    return validate_super_gram(_passive_projection(sg)[0], 2, tol=tol)


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
    return min_eig_hermitian(partial_transpose(mat, dims), hermiticity_tol=tol)


# ---------------------------------------------------------------------------
# Product decomposition (qubit passive realizations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductTerm:
    """Weight and factors of one product C1 ⊗ C2; each factor a read-only 2x2 Gram matrix."""

    weight: float
    c1: np.ndarray
    c2: np.ndarray


@dataclass(frozen=True)
class ProductDecomposition:
    """Convex mixture sum_i q_i C1_i ⊗ C2_i reconstructing a Gram matrix."""

    terms: tuple[ProductTerm, ...]
    residual: float

    def reconstruct(self) -> np.ndarray:
        return sum(t.weight * kron(t.c1, t.c2) for t in self.terms)

    def total_weight(self) -> float:
        return float(sum(t.weight for t in self.terms))


def _circle_gram(theta) -> np.ndarray:
    """2x2 Gram matrix of a pure state on the equator of the Bloch x-y plane; for an
    array of angles, the stack of those matrices, indexed as the angles."""
    z = np.exp(1j * np.asarray(theta, dtype=float))
    out = np.ones(z.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = z.conj()
    out[..., 1, 0] = z
    return out


# Entry ((a, c), (b, d)) of C(theta) ⊗ C(phi) is exp(i((a-b) theta + (c-d) phi)):
# row 4(2a + c) + 2b + d of this table holds (a - b, c - d).
_EXPONENTS = np.array([(a - b, c - d) for a, c, b, d in np.ndindex(2, 2, 2, 2)])


def _product_column(theta, phi) -> np.ndarray:
    """C(theta) ⊗ C(phi), raveled; for arrays of angles, one column per atom."""
    return np.exp(1j * (_EXPONENTS @ (theta, phi)))


# The rank rule of ``psd_factors`` on the 4x4 target T: an eigenvalue counts when it
# exceeds 4 eps λ_max(T), and λ_max(T) <= tr T = 4.
_FULL_RANK = 16 * float(np.finfo(float).eps)
# A closed-form fit is taken as exact when no entry misses by more than this. T's
# entries are at most 1 in modulus, and the dilation's fit of a random gate
# misses by a few eps; one that misses by more has lost accuracy to a badly
# conditioned A^{-1/2}, and the factored form is tried as well.
_EXACT_FIT = 16 * float(np.finfo(float).eps)


def _apply(m: tuple, v: tuple) -> tuple[complex, complex]:
    """m v for a 2x2 matrix m held as a row-major 4-tuple of scalars."""
    return m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1]


def _product(x: tuple, y: tuple) -> tuple:
    """x y for 2x2 matrices held as row-major 4-tuples of scalars."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _bloch_eigenbasis(hz: float, hxy: complex) -> tuple[tuple, tuple]:
    """Orthonormal eigenvectors of c I + h·σ with h = (Re hxy, Im hxy, hz), that of c + |h| first.

    It is (|h| + h_z, h_x + i h_y) or, for h_z < 0, (h_x - i h_y, |h| - h_z),
    normalized; neither cancels. The second is its orthogonal complement, so
    the pair is orthonormal to rounding even where the eigenvalues coincide;
    h = 0 gives the standard basis. h is first divided by its largest
    component, so a subnormal h neither loses its direction nor makes the
    norm underflow to 0.
    """
    scale = max(abs(hz), abs(hxy.real), abs(hxy.imag))
    if scale == 0:
        return (1.0, 0.0), (0.0, 1.0)
    hz, hxy = hz / scale, hxy / scale
    r = math.hypot(hz, hxy.real, hxy.imag)
    norm = math.sqrt(2 * r * (r + abs(hz)))
    v = ((r + hz) / norm, hxy / norm) if hz >= 0 else (hxy.conjugate() / norm, (r - hz) / norm)
    return v, (-v[1].conjugate(), v[0].conjugate())


def _unitary_eigenpairs(u: tuple) -> list[tuple[complex, tuple]]:
    """Eigenvalues and orthonormal eigenvectors of a 2x2 unitary u held as a row-major 4-tuple.

    In SU(2) form u = e^{iγ} (cos ω I + i sin ω n·σ) with e^{2iγ} = det u. For
    V = e^{-iγ} u, H = (V - V†) / 2i = sin ω n·σ is Hermitian by construction
    and has u's eigenvectors, which ``_bloch_eigenbasis`` keeps orthonormal at
    a repeated eigenvalue. Each eigenvalue is read back as v† u v.
    """
    det = u[0] * u[3] - u[1] * u[2]
    half = -math.atan2(det.imag, det.real) / 2
    phase = complex(math.cos(half), math.sin(half))
    v00, v01, v10, v11 = (phase * x for x in u)
    pairs = []
    for x in _bloch_eigenbasis((v00.imag - v11.imag) / 2, (v10 - v01.conjugate()) / 2j):
        ux = _apply(u, x)
        pairs.append((x[0].conjugate() * ux[0] + x[1].conjugate() * ux[1], x))
    return pairs


def _dilation_terms(t: list) -> list[tuple[float, complex, complex, float]] | None:
    """(theta, g, share) terms of T = sum share C(theta) ⊗ g g† for a full-rank passive T, else None.

    T = sum_j C(theta_j) ⊗ P_j with P_j ⪰ 0 means sum P_j = A = T[:2, :2] and
    sum e^{-i theta_j} P_j = B = T[:2, 2:]. By Haynsworth, rank T = rank A +
    rank S with S = A - B† A^{-1} B, so T is full rank when the smaller
    eigenvalues of A = [[1, conj(a)], [a, 1]] (1 - |a|) and of S both clear the
    rank rule (_FULL_RANK). Then K = A^{-1/2} B A^{-1/2} is a strict
    contraction: with its SVD K = sum_k cos(t_k) u_k w_k†, K = (U+ + U-) / 2
    for the unitaries U± = sum_k e^{±i t_k} u_k w_k† (one unitary when every
    cos(t_k) rounds to 1), and each eigenpair (e^{-i theta}, v) of each
    unitary gives g = A^{1/2} v with share 1/(number of unitaries). Every
    step is scalar arithmetic on 2x2 matrices: A^{1/2} = (A + s I) /
    sqrt(2 + 2s) with s = sqrt(det A), A^{-1/2} = adj(A^{1/2}) / s, K's right
    singular vectors from the Bloch vector of K†K, and each unitary's
    eigenvectors from its SU(2) form (``_unitary_eigenpairs``).
    """
    a = t[1][0]
    gap = 1 - abs(a)
    if not gap > _FULL_RANK:
        return None
    det = gap * (2 - gap)
    b = (t[0][2], t[0][3], t[1][2], t[1][3])
    bd = (b[0].conjugate(), b[2].conjugate(), b[1].conjugate(), b[3].conjugate())
    schur = _product(bd, _product((1 / det, -a.conjugate() / det, -a / det, 1 / det), b))
    s00, s11, s10 = 1 - schur[0].real, 1 - schur[3].real, a - schur[2]
    if not (s00 + s11) / 2 - math.hypot((s00 - s11) / 2, abs(s10)) > _FULL_RANK:
        return None

    s = math.sqrt(det)
    c = math.sqrt(2 + 2 * s)
    root = ((1 + s) / c, a.conjugate() / c, a / c, (1 + s) / c)
    inv_root = (root[3] / s, -root[1] / s, -root[2] / s, root[0] / s)
    k = _product(inv_root, _product(b, inv_root))
    w1, w2 = _bloch_eigenbasis(
        (abs(k[0]) ** 2 + abs(k[2]) ** 2 - abs(k[1]) ** 2 - abs(k[3]) ** 2) / 2,
        k[1].conjugate() * k[0] + k[3].conjugate() * k[2],
    )
    kw1 = _apply(k, w1)
    sigma1 = math.hypot(abs(kw1[0]), abs(kw1[1]))
    u1 = (kw1[0] / sigma1, kw1[1] / sigma1) if sigma1 > 0 else w1
    u2 = (-u1[1].conjugate(), u1[0].conjugate())
    kw2 = _apply(k, w2)
    z = u2[0].conjugate() * kw2[0] + u2[1].conjugate() * kw2[1]
    sigma2 = abs(z)
    if sigma2 > 0:
        u2 = (u2[0] * z / sigma2, u2[1] * z / sigma2)
    angles = [math.acos(min(sigma1, 1.0)), math.acos(min(sigma2, 1.0))]
    signs = (1,) if all(math.cos(x) == 1.0 for x in angles) else (1, -1)
    terms = []
    for sign in signs:
        e1, e2 = (complex(math.cos(x), sign * math.sin(x)) for x in angles)
        unitary = tuple(
            e1 * u1[i] * w1[j].conjugate() + e2 * u2[i] * w2[j].conjugate() for i in (0, 1) for j in (0, 1)
        )
        for value, v in _unitary_eigenpairs(unitary):
            terms.append((-math.atan2(value.imag, value.real), *_apply(root, v), 1 / len(signs)))
    return terms


def _factored_terms(t: list) -> list[tuple[float, complex, complex, float]]:
    """(theta, g, share 1) terms of T = sum C(theta) ⊗ g g† from a PSD factor of T.

    With T = F F† (``psd_factors``) split into the rows F0, F1 of the first
    factor's levels, F0 F0† = T00 = T11 = F1 F1†, so F1 = F0 X for a unitary X,
    found by Procrustes. Its eigenvectors v_j come from ``eigh`` of the Cayley
    transform of X, rotated so that the middle of the widest gap between its
    eigenvalue angles sits at -1; they are orthonormal even where eigenvalues
    coincide, which ``eig``'s are not. Each gives g = F0 v_j, and theta_j is
    the angle of v_j† X v_j.
    """
    f = psd_factors(np.array(t))[1]
    u, _, vh = np.linalg.svd(f[:2].conj().T @ f[2:])
    x = u @ vh
    angles = np.sort(np.angle(np.linalg.eigvals(x)))
    gaps = np.diff(angles, append=angles[0] + math.tau)
    widest = int(np.argmax(gaps))
    y = x * np.exp(1j * (math.pi - angles[widest] - gaps[widest] / 2))
    eye = np.eye(len(y))
    vecs = np.linalg.eigh(hermitize(1j * np.linalg.solve(eye + y, eye - y)))[1]
    thetas = np.angle(np.einsum("ij,ik,kj->j", vecs.conj(), x, vecs))
    return [(theta, g0, g1, 1.0) for theta, (g0, g1) in zip(thetas.tolist(), (f[:2] @ vecs).T.tolist())]


def _closed_form_atoms(target: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Candidate product atoms (theta, phi) with positive weights for a passive qubit Gram matrix, best first.

    Yields at most two candidates of at most 8 distinct atoms each: the
    dilation (``_dilation_terms``) when T is full rank, then the factored form
    (``_factored_terms``), which the caller reaches only when the first does
    not fit exactly. Each gives terms T = sum share C(theta) ⊗ g g†. Since T's
    blocks have constant diagonals, g g† may be replaced by
    s [[1, conj(n)], [n, 1]], its diagonal-averaged form, which is
    s (C(a + h) + C(a - h)) / 2 with a = arg(g1 conj(g0)), cos h = |n|. Atoms
    with exactly equal angles are merged, their weights summed. Both run on the
    factor whose partner marginal (T[0, 1] or T[0, 2]) is further from rank 1.
    """
    swap = abs(target[0, 1]) > abs(target[0, 2])
    if swap:
        target = target.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    t = target.tolist()
    for form in (_dilation_terms, _factored_terms):
        if (terms := form(t)) is None:
            continue
        weights = {}  # (theta, phi) -> weight
        for theta, g0, g1, share in terms:
            m0, m1 = abs(g0), abs(g1)
            s = share * (m0 * m0 + m1 * m1) / 2
            if s == 0:
                continue
            z = g1 * g0.conjugate()
            alpha = math.atan2(z.imag, z.real)
            h = math.atan2(abs(m0 * m0 - m1 * m1), 2 * m0 * m1)
            phis = [alpha] if math.cos(h) == 1.0 else [alpha + h, alpha - h]
            for phi in phis:
                atom = (theta % math.tau, phi % math.tau)
                weights[atom] = weights.get(atom, 0.0) + s / len(phis)
        atoms = np.array(list(weights)).reshape(-1, 2)
        yield (atoms[:, ::-1] if swap else atoms), np.array(list(weights.values()))


def decompose_product_qubit(sg: SuperGram, tol: float = DEFAULT_TOL) -> ProductDecomposition:
    """Decompose a passive-compatible qubit Gram matrix into product terms.

    The atoms are products C(theta) ⊗ C(phi) of equatorial 2x2 Gram matrices.
    A matrix whose block diagonals deviate from constant by at most ``tol``
    is first averaged onto constant block diagonals, the projection of
    ``nearest_passive_qubit``, and the closed form of ``_closed_form_atoms``
    reads at most 8 atoms with positive weights off that average. Its first
    candidate, for a full-rank matrix, is the dilation of ``_dilation_terms``,
    which makes no LAPACK call. It is kept when it fits the average within
    ``_EXACT_FIT``; otherwise the factored form of ``_factored_terms`` runs
    as well, and the candidate with the smaller fit error is kept. On a
    product mixture that fit is exact to rounding. ``tol`` decides only
    whether the certificate is accepted: its residual, the largest entrywise
    distance from the caller's matrix, must be at most ``tol``. Raises
    ValidationError ("passive-compatibility") for a larger deviation,
    DecompositionError with the residual when the matrix is not a product
    mixture within ``tol`` (for instance, not PSD), and ValueError for a NaN
    or negative ``tol``. A residual within ``_EXACT_FIT`` is rounding, and its
    message names that level as the tol that certifies the matrix.
    """
    check_tol(tol)
    if sg.d != 2:
        raise DimensionError(f"product decomposition is implemented for d=2 only, got d={sg.d}")
    averaged, deviation = _passive_projection(sg)
    enforce(Check("passive-compatibility", deviation, tol), "Gram matrix", "a block diagonal deviates from constant by")

    fits = []  # (fit error on the average, atoms, weights, fit) per candidate tried
    candidates = _closed_form_atoms(averaged) if max_abs(sg.mat) > tol else [(np.empty((0, 2)), np.empty(0))]
    for atoms, weights in candidates:
        fit = (_product_column(*atoms.T) @ weights).reshape(4, 4)
        fits.append((max_abs(averaged - fit), atoms, weights, fit))
        if fits[-1][0] <= _EXACT_FIT:
            break
    _, atoms, weights, fit = min(fits, key=lambda f: f[0])
    if not (residual := max_abs(sg.mat - fit)) <= tol:
        if residual <= _EXACT_FIT:  # then tol < _EXACT_FIT, and the fit is only rounding
            reason = (
                f"within the closed form's rounding level {_EXACT_FIT:.3e} (16 eps); "
                "a tol at or above it certifies this matrix"
            )
        else:
            reason = "not a product mixture within tol"
        record = Check("product-decomposition", residual, tol, reason)
        raise DecompositionError(record, f"product decomposition residual {residual:.3e} > {tol:.1e}: {reason}")

    # Both factors of every term: circle Gram matrices, with an exact unit
    # diagonal and exact Hermiticity by construction, so nothing is left to check.
    factors = _circle_gram(atoms)
    factors.setflags(write=False)
    terms = tuple(ProductTerm(float(w), c1, c2) for w, (c1, c2) in zip(weights, factors))
    return ProductDecomposition(terms=terms, residual=residual)


# ---------------------------------------------------------------------------
# Qutrit family
# ---------------------------------------------------------------------------


def _check_disk(alpha: complex, beta: complex, tol: float) -> tuple[complex, complex]:
    check_tol(tol)
    alpha, beta = complex(alpha), complex(beta)
    require(np.array([alpha, beta]), ("finite-entries",), 0, "family parameters")  # max() would drop a NaN
    excess = max(abs(alpha), abs(beta)) - 1
    enforce(Check("unit-disk", excess, tol), "parameters leave the unit disk", "max(|a|, |b|) - 1 =")
    return alpha, beta


def family_gram(alpha: complex, beta: complex, tol: float = DEFAULT_TOL) -> SuperGram:
    """Qutrit superchannel family: identity diagonal blocks, a single alpha
    coupling in block (0, 1) at entry (2, 0) and a single beta coupling in
    block (0, 2) at entry (0, 0); validated at tol."""
    alpha, beta = _check_disk(alpha, beta, tol)
    mat = np.eye(9, dtype=complex)
    mat[2, 3] = alpha
    mat[3, 2] = np.conj(alpha)
    mat[0, 6] = beta
    mat[6, 0] = np.conj(beta)
    return validate_super_gram(mat, 3, tol=tol)


def family_ppt_closed_form(alpha: complex, beta: complex, tol: float = DEFAULT_TOL) -> float:
    """Smallest partial-transpose eigenvalue of the family: 1 - sqrt(|a|^2 + |b|^2); |a|, |b| <= 1 + tol."""
    alpha, beta = _check_disk(alpha, beta, tol)
    return float(1.0 - np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2))


# ---------------------------------------------------------------------------
# Bundled experimental data
# ---------------------------------------------------------------------------

# The bundled matrix is the Gram matrix of the dephasing noise reconstructed
# from a published NMR gate-tomography experiment. Its entries carry three
# decimals, the precision of the published values, and that rounding limits
# how sharply the invariants can hold.
NMR_VALIDATION_TOL = 5e-3


def nmr_experimental_matrix() -> np.ndarray:
    """The bundled experimental matrix, read from data/nmr_gram.json."""
    return read_matrix(bundled_data_path("nmr_gram.json"))


def nmr_experimental_gram() -> SuperGram:
    """The bundled experimental qubit superchannel, validated at the data's precision."""
    return validate_super_gram(nmr_experimental_matrix(), 2, tol=NMR_VALIDATION_TOL)
