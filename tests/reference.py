"""Reference helpers that only the tests read.

They live here, not in dephkit, because no engine path, CLI command or
acceptance criterion uses them.
"""

import numpy as np

from dephkit import (
    BipartiteChannel,
    Channel,
    GramMatrix,
    SuperGram,
    affine_map,
    apply_channel,
    bipartite_channel,
    channel_from_kraus,
    validate_super_gram,
)
from dephkit.bloch import _I2, SIGMA, AffineMap
from dephkit.errors import DimensionError
from dephkit.linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    basis_matrix,
    dagger,
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


def gram_matrix(mat, tol: float = DEFAULT_TOL) -> GramMatrix:
    """Validate a Gram matrix: PSD within tol with all diagonal entries 1 within tol."""
    m = as_complex_matrix(mat)
    require(m, ("unit-diagonal", "hermitian", "psd"), tol, "Gram matrix")
    return GramMatrix(mat=readonly_copy(m))


def dephasing_channel(c: GramMatrix, tol: float = DEFAULT_TOL) -> Channel:
    """Kraus form of the dephasing channel for Gram matrix C = sum_n v_n v_n†, TP within tol."""
    return channel_from_kraus([np.diag(f) for f in psd_factors(c.mat)[1].T], tol=tol)


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


def dephase_state(rho, c: GramMatrix) -> np.ndarray:
    """Dephasing action rho ⊙ C: populations kept, coherences rescaled."""
    rho = as_complex_matrix(rho)
    if rho.shape != c.mat.shape:
        raise DimensionError(f"state shape {rho.shape} != Gram shape {c.mat.shape}")
    return rho * c.mat


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


def marginal_grams(sg: SuperGram, tol: float = DEFAULT_TOL) -> tuple[GramMatrix, list[GramMatrix]]:
    """Marginal dephasing actions: the shared diagonal block, and for each basis
    level m the matrix of (m, m) entries of every block."""
    d = sg.d
    c_en = gram_matrix(sg.block(0, 0), tol=tol)
    c_de = [gram_matrix(sg.mat[m::d, m::d], tol=tol) for m in range(d)]
    return c_en, c_de
