"""Quantum states and channels.

Channels are stored canonically as Kraus operator lists; the Jamiolkowski
state is a derived view, recomputed on demand.
States and channels are validated at construction, against the checks of
the linalg measure layer, and never silently repaired.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DimensionError
from .linalg import (
    DEFAULT_TOL,
    Check,
    as_complex_matrix,
    basis_matrix,
    dagger,
    enforce,
    hermitize,
    max_abs,
    partial_trace,
    psd_factors,
    readonly_copy,
    require,
)


def _psd_factor(mat, checks: tuple[str, ...], tol: float, subject: str) -> tuple[np.ndarray, np.ndarray]:
    """M and S with S S† = M, once the side checks and "psd" (-λ_min of the ``psd_factors``
    call that gives S) hold within tol; the first failure is raised for subject."""
    m = as_complex_matrix(mat)
    require(m, checks, tol, subject)
    lam_min, s = psd_factors(m)
    enforce(Check("psd", -lam_min, tol), subject)
    return m, s


def density_matrix(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace and PSD within tol."""
    return _psd_factor(mat, ("hermitian", "unit-trace"), tol, "state")[0]


@dataclass(frozen=True)
class Channel:
    """A trace-preserving completely positive map stored as Kraus operators.

    sum_n K_n† K_n = I is checked at construction, entrywise within ``tol``.
    """

    kraus: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float):
        if not self.kraus:
            raise DimensionError("channel needs at least one Kraus operator")
        for k in self.kraus:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionError(
                    f"Kraus operator shape {k.shape} != ({self.dim_out}, {self.dim_in})"
                )
        require(self.kraus, ("trace-preserving",), tol, "channel")


def channel_from_kraus(kraus, tol: float = DEFAULT_TOL) -> Channel:
    """Build a Channel from an iterable of equal-shape Kraus matrices, TP within tol."""
    ops = tuple(readonly_copy(as_complex_matrix(k)) for k in kraus)
    rows, cols = ops[0].shape if ops else (0, 0)  # Channel refuses an empty list
    return Channel(kraus=ops, dim_in=cols, dim_out=rows, tol=tol)


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """sum_n K_n rho K_n†."""
    rho = as_complex_matrix(rho)
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise DimensionError(f"state shape {rho.shape} incompatible with dim_in={ch.dim_in}")
    return sum(k @ rho @ dagger(k) for k in ch.kraus)


def jamiolkowski(ch: Channel) -> np.ndarray:
    """Jamiolkowski state (E ⊗ I)|Psi><Psi| = sum_n vec(K_n) vec(K_n)† / d, vec row-major.

    This is the reshuffled superoperator over d; ``channel_from_jamiolkowski``
    inverts it, reading each Kraus operator back from one column vec(K)/sqrt(d).
    """
    if ch.dim_in != ch.dim_out:
        raise DimensionError("Jamiolkowski form implemented for square channels only")
    d = ch.dim_in
    vecs = np.reshape(ch.kraus, (-1, d * d))
    return vecs.T @ vecs.conj() / d


def _channel_from_jamiolkowski(jam, tol: float, subject: str) -> Channel:
    """channel_from_jamiolkowski, its refusals raised for subject."""
    jam = as_complex_matrix(jam)
    side = jam.shape[0]
    d = round(side**0.5)
    if jam.shape != (side, side) or d * d != side or d < 1:
        raise DimensionError(f"Jamiolkowski matrix must be d^2 x d^2 with d >= 1, got {jam.shape}")
    jam, s = _psd_factor(jam, ("hermitian", "jamiolkowski-tp"), tol, subject)
    dropped = max_abs(partial_trace(hermitize(jam) - s @ dagger(s), (d, d), "first"))
    ops = [np.sqrt(d) * f.reshape(d, d) for f in s.T] or [np.zeros((d, d), dtype=complex)]
    return channel_from_kraus(ops, tol=d * (tol + dropped))


def channel_from_jamiolkowski(jam: np.ndarray, tol: float = DEFAULT_TOL) -> Channel:
    """Recover Kraus operators from a Jamiolkowski state by eigendecomposition.

    J is a channel's state when "hermitian", "jamiolkowski-tp" (max |Tr_1 J - I/d|)
    and "psd" (-λ_min of J) hold within tol, checked in that order; the first
    failure raises ValidationError. J = S S† by ``psd_factors``, which keeps one
    column f of S per eigenvalue above its rank cutoff, so negatives within tol
    are dropped, and each f gives the Kraus operator sqrt(d)·f as a d x d
    matrix. Then sum K†K - I is d·(Tr_1 S S† - I/d) transposed; dropping the
    eigenvalues moves Tr_1 by w = max |Tr_1 (H - S S†)|, H the Hermitian part
    of J, so the Channel's "trace-preserving" check is held to d·(tol + w).
    """
    return _channel_from_jamiolkowski(jam, tol, "Jamiolkowski matrix")


def classical_action(ch: Channel) -> np.ndarray:
    """Transition matrix T[i, j] = <i|E(|j><j|)|i> of a channel.

    Its entries are sums of squared moduli, so nonnegative; column j sums to
    (sum K†K)[j, j], which the channel was held to 1 at construction.
    """
    if ch.dim_in != ch.dim_out:
        raise DimensionError("classical action requires dim_in == dim_out")
    return sum(np.abs(k) ** 2 for k in ch.kraus)


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
