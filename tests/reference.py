"""Reference helpers that only the tests read.

They live here, not in dephkit, because no engine path, CLI command or
acceptance criterion uses them.
"""

import json
from pathlib import Path

import numpy as np

from dephkit import (
    BipartiteChannel,
    Channel,
    SuperGram,
    affine_map,
    apply_channel,
    bipartite_channel,
    channel_from_kraus,
    jamiolkowski,
    validate_super_gram,
)
from dephkit.bloch import _I2, SIGMA, AffineMap
from dephkit.errors import DimensionError
from dephkit.io import matrix_to_obj
from dephkit.linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    basis_matrix,
    dagger,
    kron,
    max_abs,
    measure,
    psd_factors,
    readonly_copy,
    require,
)


def max_entangled_state(d: int) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |ii>."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(psi, psi.conj())


def gram_matrix(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a Gram matrix, PSD within tol with all diagonal entries 1 within tol, as a read-only copy."""
    m = as_complex_matrix(mat)
    require(m, ("unit-diagonal", "hermitian", "psd"), tol, "Gram matrix")
    return readonly_copy(m)


def dephasing_channel(c: np.ndarray, tol: float = DEFAULT_TOL) -> Channel:
    """Kraus form of the dephasing channel for Gram matrix C = sum_n v_n v_n†, TP within tol."""
    return channel_from_kraus([np.diag(f) for f in psd_factors(c)[1].T], tol=tol)


def superop_from_kraus(ch: Channel) -> np.ndarray:
    """Superoperator Phi = sum_n K_n ⊗ K_n*, acting on row-major vectorized states."""
    return sum(kron(k, k.conj()) for k in ch.kraus)


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


def write_jamiolkowski_channel(path, ch: Channel) -> None:
    """A channel file tagged "jamiolkowski": its dimension and its Jamiolkowski state."""
    obj = {"kind": "jamiolkowski", "dim": ch.dim_in, "matrix": matrix_to_obj(jamiolkowski(ch))}
    Path(path).write_text(json.dumps(obj), encoding="utf-8")


def random_density_matrix(d: int, seed: int) -> np.ndarray:
    """Full-rank random state from a normalized Wishart matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ dagger(g)
    return w / np.trace(w)


def identity_channel(d: int) -> Channel:
    return channel_from_kraus([np.eye(d, dtype=complex)])


def unitary_channel(u) -> Channel:
    return channel_from_kraus([u])


def maximally_dephasing_channel(d: int) -> Channel:
    return dephasing_channel(gram_matrix(np.eye(d)))


def identity_super_gram(d: int) -> SuperGram:
    """All-ones matrix: the superchannel that leaves every channel unchanged."""
    return validate_super_gram(np.ones((d * d, d * d), dtype=complex), d)


def schur(a, b) -> np.ndarray:
    """Entrywise (Schur/Hadamard) product of two equal-shape matrices."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch for Schur product: {a.shape} vs {b.shape}")
    return a * b


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff m is Hermitian within tol and its smallest eigenvalue is >= -tol."""
    return all(c.passed for c in measure(as_complex_matrix(m), ("hermitian", "psd"), tol))


def compose(after: Channel, before: Channel) -> Channel:
    """Channel composition after∘before via Kraus products."""
    if before.dim_out != after.dim_in:
        raise DimensionError(f"cannot compose: inner dims {before.dim_out} != {after.dim_in}")
    ops = [a @ b for a in after.kraus for b in before.kraus]
    return channel_from_kraus(ops)


def dephase_state(rho, c: np.ndarray) -> np.ndarray:
    """Dephasing action rho ⊙ C: populations kept, coherences rescaled."""
    rho = as_complex_matrix(rho)
    if rho.shape != c.shape:
        raise DimensionError(f"state shape {rho.shape} != Gram shape {c.shape}")
    return rho * c


def max_dephase(rho) -> np.ndarray:
    """Project a state onto its diagonal (Schur product with the identity Gram)."""
    return np.diag(np.diag(as_complex_matrix(rho)))


def is_mio(ch: Channel, tol: float = DEFAULT_TOL) -> bool:
    """True iff the channel maps every basis state to a diagonal state (within tol)."""
    d = ch.dim_in
    for i in range(d):
        out = apply_channel(ch, basis_matrix(i, i, d))
        if max_abs(out - np.diag(np.diag(out))) > tol:
            return False
    return True


def xy_plane_projection() -> AffineMap:
    """The positive, non-CP map that projects Bloch vectors onto the x-y plane."""
    return affine_map(np.diag([1.0, 1.0, 0.0]), np.zeros(3))


def pauli_anchor_defect() -> float:
    """Max deviation of the maximally entangled projector from its Pauli expansion."""
    expansion = (
        np.kron(_I2, _I2)
        + np.kron(SIGMA[0], SIGMA[0])
        - np.kron(SIGMA[1], SIGMA[1])
        + np.kron(SIGMA[2], SIGMA[2])
    ) / 4
    return max_abs(expansion - max_entangled_state(2))


def project_to_xy(a: AffineMap) -> AffineMap:
    """Compose the x-y plane projection after the map: kills the z row of (Lambda, t)."""
    p = np.diag([1.0, 1.0, 0.0])
    return affine_map(p @ a.lam, p @ a.t)


def identity_bipartite(sys_dim: int, mem_dim: int) -> BipartiteChannel:
    eye = np.eye(sys_dim * mem_dim, dtype=complex)
    return bipartite_channel([eye], (sys_dim, mem_dim, sys_dim, mem_dim))


def marginal_grams(sg: SuperGram, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, list[np.ndarray]]:
    """Marginal dephasing actions: the shared diagonal block, and for each basis
    level m the matrix of (m, m) entries of every block."""
    d = sg.d
    c_en = gram_matrix(sg.mat[:d, :d], tol=tol)
    c_de = [gram_matrix(sg.mat[m::d, m::d], tol=tol) for m in range(d)]
    return c_en, c_de


def compose_triples(inner, outer):
    """The (enc, dec, tau) that wraps outer = (enc2, dec2, tau2) around inner = (enc1, dec1, tau1).

    The system passes enc2, enc1, the gate, dec1 and dec2, in that order; the
    memory is M1 ⊗ M2 in the state tau1 ⊗ tau2. Built from the Kraus tensors
    alone, so it is independent of the realization engine; the composed
    superchannel is the second applied after the first, whose Gram matrix is
    the Schur product of theirs.
    """
    (enc1, dec1, tau1), (enc2, dec2, tau2) = inner, outer
    d = enc1.sys_in
    # Kraus tensors [kraus, sys_out, mem_out, sys_in, mem_in]; the system index y joins the two maps
    enc = np.einsum("cxpya,eyqsb->cexpqsab", enc1.kraus_tensors(), enc2.kraus_tensors())
    dec = np.einsum("cxqyb,eypsa->cexpqsab", dec2.kraus_tensors(), dec1.kraus_tensors())
    mems_in = (enc1.mem_in * enc2.mem_in, dec1.mem_in * dec2.mem_in)
    mems_out = (enc1.mem_out * enc2.mem_out, dec1.mem_out * dec2.mem_out)
    enc, dec = (
        bipartite_channel(k.reshape(-1, d * m_out, d * m_in), (d, m_in, d, m_out))
        for k, m_in, m_out in zip((enc, dec), mems_in, mems_out)
    )
    return enc, dec, kron(tau1, tau2)
