import numpy as np
import pytest

from dephkit import (
    DimensionError,
    ValidationError,
    affine_from_channel,
    affine_from_jamiolkowski,
    affine_map,
    apply_channel,
    apply_super,
    gram_action_on_affine,
    jamiolkowski,
    jamiolkowski_from_affine,
    random_channel,
    random_super_gram,
    validate_super_gram,
)
from dephkit.bloch import SIGMA, _I2
from dephkit.linalg import max_abs, min_eig_hermitian
from reference import (
    identity_channel,
    identity_super_gram,
    max_entangled_state,
    maximally_dephasing_channel,
    pauli_anchor_defect,
    project_to_xy,
    unitary_channel,
    xy_plane_projection,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def pauli_sum_jamiolkowski(lam, t):
    """Independent route: expand (L ⊗ I)|Psi><Psi| in the Pauli basis."""
    i2 = np.eye(2, dtype=complex)
    l_of_i = i2 + sum(t[k] * SIGMA[k] for k in range(3))
    out = np.kron(l_of_i, i2)
    signs = (1, -1, 1)
    for k in range(3):
        image = sum(lam[j, k] * SIGMA[j] for j in range(3))
        out = out + signs[k] * np.kron(image, SIGMA[k])
    return out / 4


def test_pauli_anchor_identity():
    # Sign convention anchor: |Psi><Psi| = (I⊗I + s1⊗s1 - s2⊗s2 + s3⊗s3)/4.
    assert pauli_anchor_defect() < 1e-15


def test_affine_from_channel_trivial_cases():
    aff = affine_from_channel(identity_channel(2))
    assert max_abs(aff.lam - np.eye(3)) < 1e-12
    assert max_abs(aff.t) < 1e-12

    aff = affine_from_channel(maximally_dephasing_channel(2))
    assert max_abs(aff.lam - np.diag([0.0, 0.0, 1.0])) < 1e-12
    assert max_abs(aff.t) < 1e-12

    aff = affine_from_channel(unitary_channel(SX))
    assert max_abs(aff.lam - np.diag([1.0, -1.0, -1.0])) < 1e-12
    assert max_abs(aff.t) < 1e-12


def probed_affine(ch):
    """Independent route: Bloch images of seven probe states, read with apply_channel.

    t is read from the image of I/2, column k of Lambda from the images of (I ± sigma_k)/2."""
    t = np.array([np.trace(s @ apply_channel(ch, _I2 / 2)).real for s in SIGMA])
    lam = np.zeros((3, 3))
    for k in range(3):
        img = apply_channel(ch, (_I2 + SIGMA[k]) / 2) - apply_channel(ch, (_I2 - SIGMA[k]) / 2)
        lam[:, k] = [0.5 * np.trace(s @ img).real for s in SIGMA]
    return lam, t


@pytest.mark.parametrize("rank", range(1, 5))
@pytest.mark.parametrize("seed", range(5))
def test_affine_from_channel_matches_probed_bloch_images(seed, rank):
    ch = random_channel(2, rank, seed)
    lam, t = probed_affine(ch)
    aff = affine_from_channel(ch)
    assert max_abs(aff.lam - lam) < 1e-15
    assert max_abs(aff.t - t) < 1e-15


def test_affine_from_channel_rejects_non_qubit():
    with pytest.raises(DimensionError):
        affine_from_channel(random_channel(3, 2, 0))


def test_jamiolkowski_from_affine_identity():
    aff = affine_map(np.eye(3), np.zeros(3))
    assert max_abs(jamiolkowski_from_affine(aff) - max_entangled_state(2)) < 1e-15


@pytest.mark.parametrize("seed", range(10))
def test_jamiolkowski_from_affine_matches_pauli_sum(seed):
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal((3, 3))
    t = rng.standard_normal(3)
    jam = jamiolkowski_from_affine(affine_map(lam, t))
    assert max_abs(jam - pauli_sum_jamiolkowski(lam, t)) < 1e-14
    assert max_abs(jam - jam.conj().T) < 1e-14
    assert abs(np.trace(jam) - 1) < 1e-14


def test_xy_projection_map_is_not_cp():
    jam = jamiolkowski_from_affine(xy_plane_projection())
    assert max_abs(jam - jam.conj().T) < 1e-14
    assert abs(np.trace(jam) - 1) < 1e-14
    assert min_eig_hermitian(jam) < -1e-3


@pytest.mark.parametrize("seed", range(10))
def test_affine_jamiolkowski_roundtrip_on_channels(seed):
    ch = random_channel(2, 3, seed)
    aff = affine_from_channel(ch)
    assert max_abs(jamiolkowski_from_affine(aff) - jamiolkowski(ch)) < 1e-9
    back = affine_from_jamiolkowski(jamiolkowski(ch))
    assert max_abs(back.lam - aff.lam) < 1e-9
    assert max_abs(back.t - aff.t) < 1e-9


def test_project_to_xy():
    ident = affine_map(np.eye(3), np.zeros(3))
    proj = project_to_xy(ident)
    assert np.array_equal(proj.lam, np.diag([1.0, 1.0, 0.0]))
    twice = project_to_xy(proj)
    assert np.array_equal(twice.lam, proj.lam)
    lifted = affine_map(np.eye(3), np.array([0.0, 0.0, 1.0]))
    assert max_abs(project_to_xy(lifted).t) == 0.0


def test_gram_action_all_ones_is_identity():
    aff = affine_from_channel(random_channel(2, 2, seed=2))
    out = gram_action_on_affine(identity_super_gram(2), aff)
    assert max_abs(out.lam - aff.lam) < 1e-12
    assert max_abs(out.t - aff.t) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_gram_action_cmax_closed_form(seed, cmax):
    aff = affine_from_channel(random_channel(2, 3, seed))
    out = gram_action_on_affine(cmax, aff)
    w = aff.lam[:, 2]
    t = aff.t
    expected_lam = np.zeros((3, 3))
    expected_lam[:, 2] = [(w[0] + t[0]) / 2, (w[1] + t[1]) / 2, w[2]]
    expected_t = np.array([(w[0] + t[0]) / 2, (w[1] + t[1]) / 2, t[2]])
    assert max_abs(out.lam - expected_lam) < 1e-9
    assert max_abs(out.t - expected_t) < 1e-9


def test_gram_action_identity_gram_on_identity_channel():
    aff = affine_from_channel(identity_channel(2))
    out = gram_action_on_affine(validate_super_gram(np.eye(4), 2), aff)
    assert max_abs(out.lam - np.diag([0.0, 0.0, 1.0])) < 1e-12
    assert max_abs(out.t) < 1e-12


def test_gram_action_rejects_non_cp_input():
    with pytest.raises(ValidationError):
        gram_action_on_affine(identity_super_gram(2), xy_plane_projection())


@pytest.mark.parametrize("seed", range(10))
def test_gram_action_agrees_with_channel_route(seed):
    sg = random_super_gram(2, seed + 300)
    ch = random_channel(2, 2, seed)
    via_affine = gram_action_on_affine(sg, affine_from_channel(ch))
    via_channel = affine_from_channel(apply_super(sg, ch))
    assert max_abs(via_affine.lam - via_channel.lam) < 1e-9
    assert max_abs(via_affine.t - via_channel.t) < 1e-9
    # transformed maps stay trace preserving: real parameters, TP marginal
    jam = jamiolkowski_from_affine(via_affine)
    marg = np.trace(jam.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    assert max_abs(marg - np.eye(2) / 2) < 1e-9
