"""Affine Bloch-ball representation of qubit linear maps.

A trace-preserving linear map on qubit states acts on Bloch vectors as
r -> Lambda r + t. The map need not be completely positive; the x-y plane
projection, which the memory-activity analysis applies as a block-diagonal
average, is the canonical example of a positive but non-CP map.

Sign conventions are anchored by the identity
|Psi><Psi| = (I⊗I + s1⊗s1 - s2⊗s2 + s3⊗s3) / 4,
which is pinned by a unit test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, _psd_factor, apply_channel
from .errors import DimensionError
from .linalg import DEFAULT_TOL, as_complex_matrix, readonly_copy, require
from .superchannels import SuperGram

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_I2 = np.eye(2, dtype=complex)


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


def _affine_from_action(action) -> AffineMap:
    """Extract (Lambda, t) from a linear map given as a function on 2x2 matrices.

    Columns of Lambda come from differences of the images of (I ± sigma_k)/2,
    the translation from the image of I/2; exact by linearity.
    """
    t = np.array([np.trace(s @ action(_I2 / 2)).real for s in SIGMA])
    lam = np.zeros((3, 3))
    for k in range(3):
        img = action((_I2 + SIGMA[k]) / 2) - action((_I2 - SIGMA[k]) / 2)
        for j in range(3):
            lam[j, k] = 0.5 * np.trace(SIGMA[j] @ img).real
    return affine_map(lam, t)


def affine_from_channel(ch: Channel) -> AffineMap:
    """Bloch-ball affine parameters of a trace-preserving qubit channel."""
    if ch.dim_in != 2 or ch.dim_out != 2:
        raise DimensionError(f"affine form requires a qubit channel, got {ch.dim_in}->{ch.dim_out}")
    return _affine_from_action(lambda x: apply_channel(ch, x))


def jamiolkowski_from_affine(a: AffineMap) -> np.ndarray:
    """Explicit 4x4 Jamiolkowski matrix of the affine map (u, v, w = Lambda columns).

    Hermitian with trace 1 for any affine parameters; PSD exactly when the
    map is completely positive.
    """
    u1, u2, u3 = a.lam[:, 0]
    v1, v2, v3 = a.lam[:, 1]
    w1, w2, w3 = a.lam[:, 2]
    t1, t2, t3 = a.t
    return (
        np.array(
            [
                [1 + t3 + w3, u3 + 1j * v3, t1 - 1j * t2 + w1 - 1j * w2, u1 - 1j * u2 + 1j * v1 + v2],
                [u3 - 1j * v3, 1 + t3 - w3, u1 - 1j * u2 - 1j * v1 - v2, t1 - 1j * t2 - w1 + 1j * w2],
                [t1 + 1j * t2 + w1 + 1j * w2, u1 + 1j * u2 + 1j * v1 - v2, 1 - t3 - w3, -u3 - 1j * v3],
                [u1 + 1j * u2 - 1j * v1 + v2, t1 + 1j * t2 - w1 - 1j * w2, -u3 + 1j * v3, 1 - t3 + w3],
            ],
            dtype=complex,
        )
        / 4
    )


def affine_from_jamiolkowski(jam: np.ndarray) -> AffineMap:
    """Inverse of jamiolkowski_from_affine for trace-preserving maps."""
    jam = as_complex_matrix(jam)
    if jam.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 Jamiolkowski matrix, got {jam.shape}")
    j4 = jam.reshape(2, 2, 2, 2)
    return _affine_from_action(lambda x: 2 * np.einsum("ikjl,kl->ij", j4, x))


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
