import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gram, small_flip_channel
from dephkit import (
    DimensionError,
    ValidationError,
    apply_channel,
    channel_from_jamiolkowski,
    channel_from_kraus,
    classical_action,
    coherence_generating_power,
    density_matrix,
    jamiolkowski,
    l1_coherence,
    random_channel,
    random_super_gram,
    apply_super,
)
from dephkit.linalg import basis_matrix, max_abs, measure
from reference import (
    compose,
    dephase_state,
    dephasing_channel,
    gram_matrix,
    identity_channel,
    is_mio,
    is_psd,
    max_dephase,
    max_entangled_state,
    maximally_dephasing_channel,
    random_density_matrix,
    reshuffle,
    superop_from_kraus,
    unitary_channel,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def brute_force_superop(ch):
    """Entry (i j),(k l) = <i|E(|k><l|)|j> evaluated operator by operator."""
    d_in, d_out = ch.dim_in, ch.dim_out
    phi = np.zeros((d_out * d_out, d_in * d_in), dtype=complex)
    for k in range(d_in):
        for l in range(d_in):
            img = apply_channel(ch, basis_matrix(k, l, d_in))
            for i in range(d_out):
                for j in range(d_out):
                    phi[i * d_out + j, k * d_in + l] = img[i, j]
    return phi


def test_superop_identity():
    assert max_abs(superop_from_kraus(identity_channel(2)) - np.eye(4)) < 1e-15


def test_superop_single_kraus_flip():
    ch = unitary_channel(SX)
    assert max_abs(superop_from_kraus(ch) - np.kron(SX, SX)) < 1e-15


@pytest.mark.parametrize("d,env,seed", [(2, 2, 0), (2, 3, 1), (3, 2, 2)])
def test_superop_matches_brute_force(d, env, seed):
    ch = random_channel(d, env, seed)
    assert max_abs(superop_from_kraus(ch) - brute_force_superop(ch)) < 1e-12


def test_jamiolkowski_identity():
    assert max_abs(jamiolkowski(identity_channel(2)) - max_entangled_state(2)) < 1e-15


def test_jamiolkowski_max_dephasing():
    jam = jamiolkowski(maximally_dephasing_channel(2))
    assert max_abs(jam - np.diag([0.5, 0, 0, 0.5])) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_jamiolkowski_tp_marginal_and_psd(seed):
    for d in (2, 3):
        ch = random_channel(d, 3, seed)
        jam = jamiolkowski(ch)
        assert is_psd(jam, tol=1e-9)
        marg = np.trace(jam.reshape(d, d, d, d), axis1=0, axis2=2)
        assert max_abs(marg - np.eye(d) / d) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_superop_is_d_times_reshuffled_jamiolkowski(seed):
    for d in (2, 3):
        ch = random_channel(d, 2, seed)
        assert max_abs(superop_from_kraus(ch) - d * reshuffle(jamiolkowski(ch), d)) < 1e-12


def test_channel_from_jamiolkowski_roundtrip():
    for seed in range(5):
        ch = random_channel(2, 3, seed)
        back = channel_from_jamiolkowski(jamiolkowski(ch))
        assert max_abs(jamiolkowski(back) - jamiolkowski(ch)) < 1e-12


def test_channel_from_jamiolkowski_rejects_non_cp():
    bad = np.diag([0.75, 0.25, 0.25, -0.25])
    with pytest.raises(ValidationError):
        channel_from_jamiolkowski(bad)


@pytest.mark.parametrize("rank", range(1, 5))
@pytest.mark.parametrize("d", range(2, 6))
def test_jamiolkowski_is_the_reshuffled_superoperator_over_d(d, rank):
    # independent route: the d^2 x d^2 superoperator sum K ⊗ conj(K), reshuffled
    ch = random_channel(d, rank, seed=10 * d + rank)
    assert max_abs(jamiolkowski(ch) - reshuffle(superop_from_kraus(ch), d) / d) < 1e-15


@pytest.mark.parametrize("rank", range(1, 5))
@pytest.mark.parametrize("d", range(2, 6))
def test_jamiolkowski_inverts_channel_from_jamiolkowski(d, rank):
    jam = jamiolkowski(random_channel(d, rank, seed=10 * d + rank))
    assert max_abs(jamiolkowski(channel_from_jamiolkowski(jam)) - jam) < 1e-14


# d = 3 diagonal J, entries[a][c] = J[(a, c), (a, c)] with a the output and c the input level,
# judged at tol 1e-6. "accepted" passes every check: its two negatives (-9e-7 each) are within
# tol, but dropping them moves sum K†K by 3 · 1.8e-6 = 5.4e-6, above d·tol = 3e-6.
TRUNCATED = {
    "accepted": ([[1 / 3 + 1.8e-6, 1 / 3, 1 / 3], [-9e-7, 0, 0], [-9e-7, 0, 0]], None),
    "jamiolkowski-tp": ([[1 / 3 + 3e-6, 1 / 3, 1 / 3], [0, 0, 0], [0, 0, 0]], "jamiolkowski-tp"),
    "psd": ([[1 / 3 + 3e-6, 1 / 3, 1 / 3], [-1.5e-6, 0, 0], [-1.5e-6, 0, 0]], "psd"),
}


@pytest.mark.parametrize("case", TRUNCATED)
def test_channel_from_jamiolkowski_allows_for_its_dropped_eigenvalues(case):
    entries, refused_by = TRUNCATED[case]
    jam = np.diag(np.ravel(entries))
    if refused_by:
        with pytest.raises(ValidationError) as err:
            channel_from_jamiolkowski(jam, tol=1e-6)
        assert err.value.check == refused_by
        return
    ch = channel_from_jamiolkowski(jam, tol=1e-6)
    assert measure(ch.kraus, ("trace-preserving",), 1e-6)[0].value == pytest.approx(5.4e-6, rel=1e-6)
    assert max_abs(jamiolkowski(ch) - np.maximum(jam, 0)) < 1e-15


def test_apply_channel_identity():
    rho = random_density_matrix(2, 0)
    assert max_abs(apply_channel(identity_channel(2), rho) - rho) < 1e-15


def test_apply_channel_max_dephasing_example():
    rho = np.array([[0.5, 0.3], [0.3, 0.5]])
    out = apply_channel(maximally_dephasing_channel(2), rho)
    assert max_abs(out - np.array([[0.5, 0], [0, 0.5]])) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_apply_channel_agrees_with_superop_route(seed):
    d = 3
    ch = random_channel(d, 2, seed)
    rho = random_density_matrix(d, seed + 50)
    via_kraus = apply_channel(ch, rho)
    via_superop = (superop_from_kraus(ch) @ rho.ravel()).reshape(d, d)
    assert max_abs(via_kraus - via_superop) < 1e-12


def test_dephase_state_cases():
    rho = np.array([[0.5, 0.4], [0.4, 0.5]])
    ones = gram_matrix(np.ones((2, 2)))
    assert max_abs(dephase_state(rho, ones) - rho) < 1e-15
    eye = gram_matrix(np.eye(2))
    assert max_abs(dephase_state(rho, eye) - np.diag([0.5, 0.5])) < 1e-15
    half = gram_matrix(np.array([[1, 0.5], [0.5, 1]]))
    assert max_abs(dephase_state(rho, half) - np.array([[0.5, 0.2], [0.2, 0.5]])) < 1e-15


@pytest.mark.parametrize("d,seed", [(2, 0), (2, 1), (3, 2)])
def test_max_dephase_keeps_diagonal(d, seed):
    rho = random_density_matrix(d, seed)
    out = max_dephase(rho)
    assert max_abs(np.diag(out) - np.diag(rho)) < 1e-15
    assert l1_coherence(out) == 0.0


def test_dephasing_channel_matches_schur_action():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        c = gram_matrix(random_gram(d, rng))
        ch = dephasing_channel(c)
        rho = random_density_matrix(d, 9)
        assert max_abs(apply_channel(ch, rho) - dephase_state(rho, c)) < 1e-12


def test_dephasing_channel_holds_tp_at_the_callers_tol():
    # A Gram matrix accepted at tol 1e-6 gives Kraus operators 5e-7 off TP.
    c = gram_matrix([[1 + 5e-7, 0.5], [0.5, 1]], tol=1e-6)
    with pytest.raises(ValidationError, match="sum K†K deviates"):
        dephasing_channel(c)
    dephasing_channel(c, tol=1e-6)


def test_classical_action_identity_and_flip():
    assert np.array_equal(classical_action(identity_channel(3)), np.eye(3))
    assert np.array_equal(classical_action(unitary_channel(SX)), np.array([[0, 1], [1, 0]]))


def test_classical_action_of_dephasing_is_identity():
    rng = np.random.default_rng(5)
    ch = dephasing_channel(gram_matrix(random_gram(3, rng)))
    assert max_abs(classical_action(ch) - np.eye(3)) < 1e-12


def test_jamiolkowski_roundtrip_keeps_a_small_kraus_operator():
    # The Choi eigenvalue 8e-13 lies far above the rank cutoff; dropping it
    # would move sum K†K off the identity by 4e-13.
    ch = channel_from_jamiolkowski(jamiolkowski(small_flip_channel()), tol=1e-13)
    assert len(ch.kraus) == 2
    assert max_abs(superop_from_kraus(ch) - superop_from_kraus(small_flip_channel())) < 1e-15


@pytest.mark.parametrize("seed", range(3))
def test_classical_action_sandwich_invariance(seed):
    # Dephasing the input and output never changes which populations go where.
    d = 3
    ch = random_channel(d, 2, seed)
    dephased = compose(maximally_dephasing_channel(d), compose(ch, maximally_dephasing_channel(d)))
    assert max_abs(classical_action(dephased) - classical_action(ch)) < 1e-12


def test_mio_commutation_for_dephasing_channels():
    rng = np.random.default_rng(6)
    d = 3
    for _ in range(5):
        phi = dephasing_channel(gram_matrix(random_gram(d, rng)))
        lhs = compose(phi, maximally_dephasing_channel(d))
        rhs = compose(maximally_dephasing_channel(d), compose(phi, maximally_dephasing_channel(d)))
        assert max_abs(superop_from_kraus(lhs) - superop_from_kraus(rhs)) < 1e-9


def test_is_mio():
    rng = np.random.default_rng(7)
    assert is_mio(dephasing_channel(gram_matrix(random_gram(3, rng))), tol=1e-9)
    assert not is_mio(unitary_channel(HADAMARD), tol=1e-9)
    phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
    assert is_mio(unitary_channel(phases), tol=1e-9)


def test_l1_coherence_values():
    assert l1_coherence(np.diag([0.2, 0.8])) == 0.0
    plus = np.full((2, 2), 0.5)
    assert l1_coherence(plus) == pytest.approx(1.0)
    assert l1_coherence(np.array([[0.5, 0.3], [0.3, 0.5]])) == pytest.approx(0.6)


def test_cgp_trivial_cases():
    rng = np.random.default_rng(8)
    assert coherence_generating_power(dephasing_channel(gram_matrix(random_gram(2, rng)))) < 1e-12
    assert coherence_generating_power(unitary_channel(HADAMARD)) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(5))
def test_cgp_monotone_under_superchannels(seed):
    d = 2
    ch = random_channel(d, 2, seed)
    sg = random_super_gram(d, seed + 17)
    assert coherence_generating_power(apply_super(sg, ch)) <= coherence_generating_power(ch) + 1e-9


def test_random_channel_contract():
    ch = random_channel(2, 1, seed=3)
    assert len(ch.kraus) == 1  # env of size 1 collapses to a unitary
    assert max_abs(ch.kraus[0] @ ch.kraus[0].conj().T - np.eye(2)) < 1e-9
    for seed in range(4):
        ch = random_channel(3, 2, seed)
        assert measure(ch.kraus, ("trace-preserving",), 1e-9)[0].value < 1e-9
    a = random_channel(2, 2, seed=11)
    b = random_channel(2, 2, seed=11)
    assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        density_matrix(np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = density_matrix(np.diag([0.25, 0.75]))
    assert rho.shape == (2, 2)


def test_compose_dim_mismatch():
    with pytest.raises(DimensionError):
        compose(identity_channel(2), identity_channel(3))


def test_apply_channel_dim_mismatch():
    with pytest.raises(DimensionError):
        apply_channel(identity_channel(2), np.eye(3) / 3)


def test_jamiolkowski_requires_square_channel():
    prep = channel_from_kraus([[[1.0, 0.0]], [[0.0, 1.0]]])  # <0|, <1|: the trace, 2 -> 1
    with pytest.raises(DimensionError):
        jamiolkowski(prep)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.integers(0, 10**6))
def test_random_channels_are_tp_and_cp(d, env, seed):
    ch = random_channel(d, env, seed)
    assert measure(ch.kraus, ("trace-preserving",), 1e-9)[0].value < 1e-9
    assert is_psd(jamiolkowski(ch), tol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10**6))
def test_l1_coherence_of_dephased_state_is_zero(d, seed):
    rho = random_density_matrix(d, seed)
    assert l1_coherence(max_dephase(rho)) == 0.0
