"""Quantum states and channels.

Channels are stored canonically as Kraus operator lists; the superoperator
and Jamiolkowski representations are derived views, recomputed on demand.
States, Gram matrices, channels and classical actions are validated at
construction, against the checks of the linalg measure layer, and never
silently repaired.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    basis_matrix,
    dagger,
    hermitize,
    kron,
    max_abs,
    readonly_copy,
    require,
    reshuffle,
)


def density_matrix(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace and PSD within tol."""
    rho = as_complex_matrix(mat)
    require(rho, ("hermitian", "unit-trace", "psd"), tol, "state")
    return rho


def random_density_matrix(d: int, seed: int) -> np.ndarray:
    """Full-rank random state from a normalized Wishart matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ dagger(g)
    return w / np.trace(w)


def max_entangled_state(d: int) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |ii>."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class Channel:
    """A completely positive map stored as Kraus operators.

    ``trace_preserving`` asserts sum_n K_n† K_n = I; it is checked at
    construction, entrywise within ``tol``, when set.
    """

    kraus: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int
    trace_preserving: bool = True
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float):
        if not self.kraus:
            raise ValidationError("kraus-nonempty", "channel needs at least one Kraus operator", 0)
        for k in self.kraus:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionError(
                    f"Kraus operator shape {k.shape} != ({self.dim_out}, {self.dim_in})"
                )
        if self.trace_preserving:
            require(self.kraus, ("trace-preserving",), tol, "channel")

    def kraus_sum(self) -> np.ndarray:
        return sum(dagger(k) @ k for k in self.kraus)


def channel_from_kraus(kraus, trace_preserving: bool = True, tol: float = DEFAULT_TOL) -> Channel:
    """Build a Channel from an iterable of equal-shape Kraus matrices, TP within tol when asked."""
    ops = tuple(readonly_copy(as_complex_matrix(k)) for k in kraus)
    rows, cols = ops[0].shape if ops else (0, 0)  # Channel refuses an empty list
    return Channel(kraus=ops, dim_in=cols, dim_out=rows, trace_preserving=trace_preserving, tol=tol)


def identity_channel(d: int) -> Channel:
    return channel_from_kraus([np.eye(d, dtype=complex)])


def unitary_channel(u) -> Channel:
    return channel_from_kraus([u])


def compose(after: Channel, before: Channel) -> Channel:
    """Channel composition after∘before via Kraus products."""
    if before.dim_out != after.dim_in:
        raise DimensionError(
            f"cannot compose: inner dims {before.dim_out} != {after.dim_in}"
        )
    ops = [a @ b for a in after.kraus for b in before.kraus]
    tp = after.trace_preserving and before.trace_preserving
    return channel_from_kraus(ops, trace_preserving=tp)


def superop_from_kraus(ch: Channel) -> np.ndarray:
    """Superoperator Phi = sum_n K_n ⊗ K_n*, acting on row-major vectorized states."""
    return sum(kron(k, k.conj()) for k in ch.kraus)


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """sum_n K_n rho K_n†."""
    rho = as_complex_matrix(rho)
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise DimensionError(f"state shape {rho.shape} incompatible with dim_in={ch.dim_in}")
    return sum(k @ rho @ dagger(k) for k in ch.kraus)


def jamiolkowski(ch: Channel) -> np.ndarray:
    """Jamiolkowski state (E ⊗ I)|Psi><Psi|, the reshuffled superoperator over d."""
    if ch.dim_in != ch.dim_out:
        raise DimensionError("Jamiolkowski form implemented for square channels only")
    d = ch.dim_in
    return reshuffle(superop_from_kraus(ch), d) / d


def channel_from_jamiolkowski(
    jam: np.ndarray, tol: float = DEFAULT_TOL, trace_preserving: bool = True
) -> Channel:
    """Recover Kraus operators from a Jamiolkowski state by eigendecomposition.

    tol applies on the scale of J: eigenvalues of J below -tol signal a
    non-CP map and are rejected, tiny negatives within tol are clamped to
    zero, and trace preservation is checked as max |Tr_1 J - I/d| <= tol,
    which is sum K†K within d*tol of the identity.
    """
    jam = as_complex_matrix(jam)
    side = jam.shape[0]
    d = round(side**0.5)
    if jam.shape != (side, side) or d * d != side:
        raise DimensionError(f"Jamiolkowski matrix must be d^2 x d^2, got {jam.shape}")
    choi = d * hermitize(jam)
    vals, vecs = np.linalg.eigh(choi)
    if vals[0] < -d * tol:
        raise ValidationError("cp", f"Choi eigenvalue {vals[0]:.3e} certifies a non-CP map", -vals[0])
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam <= 1e-12:
            continue
        ops.append(np.sqrt(lam) * v.reshape(d, d))
    if not ops:
        ops = [np.zeros((d, d), dtype=complex)]
    return channel_from_kraus(ops, trace_preserving=trace_preserving, tol=d * tol)


@dataclass(frozen=True)
class GramMatrix:
    """PSD matrix with unit diagonal; acts on states entrywise as a dephasing channel."""

    mat: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        return self.mat.shape[0]


def gram_matrix(mat, tol: float = DEFAULT_TOL) -> GramMatrix:
    """Validate a Gram matrix: PSD within tol with all diagonal entries 1 within tol."""
    m = as_complex_matrix(mat)
    require(m, ("unit-diagonal", "hermitian", "psd"), tol, "Gram matrix")
    return GramMatrix(mat=readonly_copy(m))


def dephase_state(rho: np.ndarray, c: GramMatrix) -> np.ndarray:
    """Dephasing action rho ⊙ C: populations kept, coherences rescaled."""
    rho = as_complex_matrix(rho)
    if rho.shape != c.mat.shape:
        raise DimensionError(f"state shape {rho.shape} != Gram shape {c.mat.shape}")
    return rho * c.mat


def max_dephase(rho: np.ndarray) -> np.ndarray:
    """Project a state onto its diagonal (Schur product with the identity Gram)."""
    rho = as_complex_matrix(rho)
    return np.diag(np.diag(rho))


def dephasing_channel(c: GramMatrix) -> Channel:
    """Kraus form of the dephasing channel for Gram matrix C = sum_n v_n v_n†."""
    vals, vecs = np.linalg.eigh(hermitize(c.mat))
    ops = [np.diag(np.sqrt(max(lam, 0.0)) * v) for lam, v in zip(vals, vecs.T) if lam > 1e-14]
    return channel_from_kraus(ops)


def maximally_dephasing_channel(d: int) -> Channel:
    return dephasing_channel(gram_matrix(np.eye(d)))


def classical_action(ch: Channel, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Transition matrix T[i, j] = <i|E(|j><j|)|i> of a trace-preserving channel.

    Its entries are sums of squared moduli, so nonnegative; column j sums to
    (sum K†K)[j, j], which the trace-preserving check holds to 1 within tol.
    """
    if ch.dim_in != ch.dim_out:
        raise DimensionError("classical action requires dim_in == dim_out")
    require(ch.kraus, ("trace-preserving",), tol, "channel")
    return sum(np.abs(k) ** 2 for k in ch.kraus)


def is_mio(ch: Channel, tol: float = DEFAULT_TOL) -> bool:
    """True iff the channel maps every basis state to a diagonal state (within tol)."""
    d = ch.dim_in
    for i in range(d):
        out = apply_channel(ch, basis_matrix(i, i, d))
        if max_abs(out - np.diag(np.diag(out))) > tol:
            return False
    return True


def l1_coherence(rho: np.ndarray) -> float:
    """Sum of off-diagonal entry magnitudes; zero iff the state is diagonal."""
    rho = as_complex_matrix(rho)
    return float(np.abs(rho).sum() - np.abs(np.diag(rho)).sum())


def coherence_generating_power(ch: Channel) -> float:
    """Largest coherence the channel creates from any basis state."""
    if ch.dim_in != ch.dim_out:
        raise DimensionError("coherence generating power requires dim_in == dim_out")
    d = ch.dim_in
    return max(l1_coherence(apply_channel(ch, basis_matrix(k, k, d))) for k in range(d))


def random_channel(d: int, env_dim: int = 2, seed: int = 0) -> Channel:
    """Trace-preserving channel from a Haar-random Stinespring isometry.

    Deterministic for a fixed seed; env_dim=1 collapses to a random unitary.
    """
    if d < 2 or env_dim < 1:
        raise DimensionError(f"need d >= 2 and env_dim >= 1, got d={d}, env_dim={env_dim}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d * env_dim, d)) + 1j * rng.standard_normal((d * env_dim, d))
    w, _ = np.linalg.qr(z)
    blocks = w.reshape(d, env_dim, d)
    return channel_from_kraus([blocks[:, n, :] for n in range(env_dim)])
