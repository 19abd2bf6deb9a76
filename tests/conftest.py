import numpy as np
import pytest

from dephkit import (
    bipartite_channel,
    controlled_unitary_family,
    validate_super_gram,
)

# The 4x4 qubit example maximally departing from passive-memory realizability:
# its off-diagonal block has diagonal entries 1 and 0.
CMAX = np.array(
    [
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def permutation(d, a, b):
    p = np.eye(d, dtype=complex)
    p[[a, b]] = p[[b, a]]
    return p


@pytest.fixture
def cmax():
    return validate_super_gram(CMAX, 2)


@pytest.fixture
def cmax_families():
    """Controlled-unitary families whose Gram matrix is CMAX.

    The circuit vectors are psi_00 = psi_10 = e0, psi_01 = e1, psi_11 = e2,
    reproducing CMAX entry by entry.
    """
    pre = controlled_unitary_family([np.eye(4, dtype=complex), permutation(4, 0, 1)])
    post = controlled_unitary_family([np.eye(4, dtype=complex), permutation(4, 1, 2)])
    return pre, post


def audit_only_triple(eps):
    """A qubit triple whose only defect is first order in eps: the mismatch audit's.

    The encoder is a CNOT that copies the system basis into a 2-level memory
    prepared in |0>, and the decoder is exp(i eps H) on system ⊗ memory with
    H the unit-norm partial swap of |0,1> and |1,0>. At eps = 0 the triple
    realizes the superchannel with every block the identity. To first order
    the decoder moves no output of a memory basis state |m><m|, which is all
    the four realization checks probe, so they grow as eps^2 / 2, but it moves
    the memory coherences |0><1| that the simulation tensor also holds, so
    the mismatch grows as eps / sqrt(2).
    """
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    c, s = np.cos(eps / np.sqrt(2)), np.sin(eps / np.sqrt(2))
    dec = np.eye(4, dtype=complex)
    dec[1:3, 1:3] = [[c, 1j * s], [1j * s, c]]  # exp(i eps H)
    tau = np.diag([1.0, 0.0]).astype(complex)
    return bipartite_channel([cnot], (2, 2, 2, 2)), bipartite_channel([dec], (2, 2, 2, 2)), tau


def random_psd(d, rng, rank=None):
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return g @ g.conj().T


def random_gram(d, rng):
    m = random_psd(d, rng)
    scale = 1 / np.sqrt(np.diag(m).real)
    return m * np.outer(scale, scale)
