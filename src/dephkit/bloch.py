"""Affine Bloch-ball representation of qubit linear maps.

A trace-preserving linear map on qubit states acts on Bloch vectors as
r -> Lambda r + t. The map need not be completely positive; the x-y plane
projection, which the memory-activity analysis applies as a block-diagonal
average, is the canonical example of a positive but non-CP map.

Jamiolkowski matrices are read and written on one basis, B_jk = (s_j ⊗ conj(s_k)) / 4
with s = (I, sigma_x, sigma_y, sigma_z): the coefficients of J on it are the map's Pauli
transfer matrix. A channel's parameters are read from ``channels.jamiolkowski``.

Sign conventions are anchored by the identity
|Psi><Psi| = (I⊗I + s1⊗s1 - s2⊗s2 + s3⊗s3) / 4,
which is pinned by a unit test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, _psd_factor, jamiolkowski
from .errors import DimensionError
from .linalg import DEFAULT_TOL, as_complex_matrix, readonly_copy, require
from .superchannels import SuperGram

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_I2 = np.eye(2, dtype=complex)
_PAULI = np.array((_I2, *SIGMA))
_BASIS = np.einsum("jab,kcd->jkacbd", _PAULI, _PAULI.conj()).reshape(4, 4, 4, 4) / 4


@dataclass(frozen=True)
class AffineMap:
    """Distortion matrix and translation vector of a qubit linear map."""

    lam: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if self.lam.shape != (3, 3) or self.t.shape != (3,):
            raise DimensionError("affine map needs a 3x3 distortion and a length-3 translation")
        require(np.append(self.lam, self.t), ("finite-entries",), 0, "affine parameters")

    def is_contraction(self, tol: float = DEFAULT_TOL) -> bool:
        """Whether Lambda† Lambda <= I, required of positive maps."""
        sv = np.linalg.svd(self.lam, compute_uv=False)
        return bool(sv.max() <= 1 + tol)


def affine_map(lam, t) -> AffineMap:
    return AffineMap(
        lam=readonly_copy(np.asarray(lam, dtype=float)), t=readonly_copy(np.asarray(t, dtype=float))
    )


def affine_from_channel(ch: Channel) -> AffineMap:
    """Bloch-ball affine parameters of a trace-preserving qubit channel."""
    if ch.dim_in != 2 or ch.dim_out != 2:
        raise DimensionError(f"affine form requires a qubit channel, got {ch.dim_in}->{ch.dim_out}")
    return affine_from_jamiolkowski(jamiolkowski(ch))


def jamiolkowski_from_affine(a: AffineMap) -> np.ndarray:
    """Jamiolkowski matrix sum_jk T[j, k] (s_j ⊗ conj(s_k)) / 4 of the affine map.

    T is the transfer matrix on the Pauli basis s = (I, sigma_x, sigma_y, sigma_z):
    T[0, 0] = 1, first column (1, t), lower block Lambda. Hermitian with trace 1
    for any affine parameters; PSD exactly when the map is completely positive.
    """
    transfer = np.eye(4)
    transfer[1:, 0] = a.t
    transfer[1:, 1:] = a.lam
    return np.einsum("jk,jkxy->xy", transfer, _BASIS)


def affine_from_jamiolkowski(jam: np.ndarray) -> AffineMap:
    """Inverse of jamiolkowski_from_affine for trace-preserving maps: T[j, k] = 4·Re Tr(B_jk J)."""
    jam = as_complex_matrix(jam)
    if jam.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 Jamiolkowski matrix, got {jam.shape}")
    transfer = 4 * np.einsum("jkyx,xy->jk", _BASIS, jam).real
    return affine_map(transfer[1:, 1:], transfer[1:, 0])


def gram_action_on_affine(sg: SuperGram, a: AffineMap, tol: float = DEFAULT_TOL) -> AffineMap:
    """Affine parameters of a CP-TP qubit map after a dephasing superchannel.

    Routes through the Jamiolkowski form, Schur-multiplies with the Gram
    matrix, and extracts the transformed (Lambda, t). The intermediate matrix
    must pass "hermitian", "jamiolkowski-tp" and "psd" within tol, as a
    Jamiolkowski state does exactly when the input map is CP-TP.
    """
    if sg.d != 2:
        raise DimensionError(f"affine action is defined for qubit superchannels, got d={sg.d}")
    jam_out = jamiolkowski_from_affine(a) * sg.mat
    _psd_factor(jam_out, ("hermitian", "jamiolkowski-tp"), tol, "transformed matrix")
    return affine_from_jamiolkowski(jam_out)
