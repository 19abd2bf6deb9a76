import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CMAX, random_psd
from dephkit import (
    DimensionError,
    ValidationError,
    kron,
    min_eig_hermitian,
    partial_trace,
    partial_transpose,
)
from dephkit.linalg import Check, basis_matrix, basis_vector, max_abs, psd_factors
from dephkit.memory import family_gram
from reference import is_psd, reshuffle, schur

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal():
    out = kron(np.diag([1.0, 2.0]), np.eye(2))
    assert np.array_equal(out, np.diag([1.0, 1.0, 2.0, 2.0]))


def test_kron_flip_maps_00_to_11():
    v00 = kron(basis_vector(0, 2)[:, None], basis_vector(0, 2)[:, None])
    assert np.array_equal(kron(SX, SX) @ v00, kron(basis_vector(1, 2)[:, None], basis_vector(1, 2)[:, None]))


def test_schur_all_ones_is_identity():
    m = np.arange(9).reshape(3, 3) + 1j
    assert np.array_equal(schur(m, np.ones((3, 3))), m)


def test_schur_with_identity_projects_diagonal():
    m = np.arange(4).reshape(2, 2) + 0.5j
    assert np.array_equal(schur(m, np.eye(2)), np.diag(np.diag(m)))


def test_schur_mask():
    out = schur(np.array([[1, 2], [3, 4]]), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(out, np.array([[0, 2], [3, 0]]))


def test_schur_shape_mismatch():
    with pytest.raises(DimensionError):
        schur(np.eye(2), np.eye(3))


def test_partial_trace_product_case():
    rng = np.random.default_rng(0)
    rho = random_psd(2, rng)
    sigma = random_psd(3, rng)
    out = partial_trace(kron(rho, sigma), (2, 3), "second")
    assert max_abs(out - rho * np.trace(sigma)) < 1e-12
    out = partial_trace(kron(rho, sigma), (2, 3), "first")
    assert max_abs(out - sigma * np.trace(rho)) < 1e-12


def test_partial_trace_identity():
    assert np.array_equal(partial_trace(np.eye(4), (2, 2), "first"), 2 * np.eye(2))


def test_partial_trace_max_entangled_marginals():
    psi = (kron(basis_vector(0, 2)[:, None], basis_vector(0, 2)[:, None])
           + kron(basis_vector(1, 2)[:, None], basis_vector(1, 2)[:, None])) / np.sqrt(2)
    proj = psi @ psi.conj().T
    for which in ("first", "second"):
        assert max_abs(partial_trace(proj, (2, 2), which) - np.eye(2) / 2) < 1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(5), (2, 2), "first")


def test_partial_transpose_product_case():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert max_abs(partial_transpose(kron(a, b), (2, 3)) - kron(a, b.T)) < 1e-15


def test_partial_transpose_family_eigenvalue():
    pt = partial_transpose(family_gram(1, 1).mat, (3, 3))
    assert abs(min_eig_hermitian(pt) - (1 - np.sqrt(2))) < 1e-9


def test_reshuffle_identity_channel_relation():
    # Jamiolkowski state of the identity channel, built directly from the
    # maximally entangled vector; its reshuffle times d is the superoperator I4.
    psi = np.zeros(4, dtype=complex)
    psi[[0, 3]] = 1 / np.sqrt(2)
    jam = np.outer(psi, psi.conj())
    assert max_abs(2 * reshuffle(jam, 2) - np.eye(4)) < 1e-15


def test_reshuffle_rank_one_index_bookkeeping():
    # in = |a><b| ⊗ |c><d| has its single entry at [(a,c), (b,d)];
    # the reshuffle moves it to [(a,b), (c,d)].
    d = 3
    for a, b, c, e in [(0, 1, 2, 0), (2, 2, 1, 0), (1, 0, 0, 2)]:
        m = kron(basis_matrix(a, b, d), basis_matrix(c, e, d))
        out = reshuffle(m, d)
        expected = np.zeros((9, 9), dtype=complex)
        expected[a * d + b, c * d + e] = 1
        assert np.array_equal(out, expected)


def test_reshuffle_rejects_non_square_side():
    with pytest.raises(DimensionError):
        reshuffle(np.eye(4), 3)
    with pytest.raises(DimensionError):
        reshuffle(np.eye(5))


def test_min_eig_trivial_cases():
    assert min_eig_hermitian(np.eye(3)) == pytest.approx(1.0)
    assert min_eig_hermitian(np.diag([1.0, -2.0, 3.0])) == pytest.approx(-2.0)


def test_min_eig_family_closed_form():
    for alpha, beta in [(1, 1), (0.5, 0.5j), (0.9, 0.1)]:
        pt = partial_transpose(family_gram(alpha, beta).mat, (3, 3))
        expected = 1 - np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        assert abs(min_eig_hermitian(pt) - expected) < 1e-9


def test_min_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        min_eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("d,rank", [(3, 3), (4, 2), (6, 1)])
def test_psd_factors_reproduce_the_hermitian_part(d, rank):
    rng = np.random.default_rng([d, rank])
    psd = random_psd(d, rng, rank)
    skew = 1j * random_psd(d, rng)  # anti-Hermitian, so outside the Hermitian part
    lam_min, f = psd_factors(psd + skew)
    assert f.shape == (d, rank)
    assert max_abs(f @ f.conj().T - psd) < 1e-12 * max_abs(psd)
    assert lam_min == pytest.approx(np.linalg.eigvalsh(psd)[0], abs=1e-12 * max_abs(psd))


def test_psd_factor_of_a_pure_state_is_its_vector():
    v = np.array([0.6, 0.48j, 0.64])
    lam_min, f = psd_factors(np.outer(v, v.conj()))
    assert f.shape == (3, 1)
    assert abs(abs(np.vdot(f[:, 0], v)) - 1) < 1e-15
    assert abs(lam_min) < 1e-15


def test_is_psd_trivial():
    assert is_psd(np.eye(3))
    assert not is_psd(np.diag([1.0, -1e-3]), tol=1e-9)


def test_is_psd_returns_false_on_non_hermitian():
    assert not is_psd(np.array([[0, 1], [0, 0]], dtype=complex))


def test_non_finite_entries_rejected():
    with pytest.raises(ValidationError):
        kron(np.array([[np.nan, 0], [0, 1]]), np.eye(2))
    with pytest.raises(ValidationError):
        schur(np.array([[np.inf, 0], [0, 1]]), np.eye(2))


def test_cmax_is_gram_of_explicit_vectors():
    # CMAX is the Gram matrix of (e0, e1, e0, e2): rebuild and compare exactly.
    vecs = np.array([basis_vector(i, 3) for i in (0, 1, 0, 2)]).T
    gram = (vecs.conj().T @ vecs).T
    assert np.array_equal(gram, CMAX)
    assert is_psd(CMAX)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6))
def test_schur_product_theorem(d, seed):
    rng = np.random.default_rng(seed)
    a = random_psd(d, rng)
    b = random_psd(d, rng)
    assert is_psd(schur(a, b), tol=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10**6))
def test_partial_trace_of_kron(da, db, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
    b = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
    out = partial_trace(kron(a, b), (da, db), "second")
    assert max_abs(out - np.trace(b) * a) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**6))
def test_involutions(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    assert np.array_equal(reshuffle(reshuffle(m, d), d), m)
    assert np.array_equal(partial_transpose(partial_transpose(m, (d, d)), (d, d)), m)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_gram_of_vectors_is_psd(d, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    gram = vecs.conj().T @ vecs
    assert min_eig_hermitian(gram) >= -1e-10


def test_check_with_a_nan_value_fails_and_a_fact_passes():
    assert Check("unit-diagonal", float("nan"), 1e-9).passed is False
    assert Check("unit-diagonal", 1e-9, 1e-9).passed is True
    assert Check("distortion matrix rows", [1], None).passed is True
