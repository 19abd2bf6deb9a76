import numpy as np
import pytest

from dephkit import (
    DecompositionError,
    DimensionError,
    ValidationError,
    decompose_product_qubit,
    family_gram,
    family_ppt_closed_form,
    family_realization,
    gram_from_controlled_unitaries,
    gram_matrix,
    is_passive_compatible,
    kron,
    l1_distance,
    memory_activity_qubit,
    nearest_passive_qubit,
    nmr_experimental_gram,
    ppt_min_eig,
    random_super_gram,
    validate_super_gram,
)
from dephkit.linalg import basis_vector, max_abs
from dephkit.memory import NMR_VALIDATION_TOL, _best_atom, _circle_gram

RNG = np.random.default_rng(2024)


def disk_gram(r, theta):
    c = r * np.exp(1j * theta)
    return np.array([[1.0, np.conj(c)], [c, 1.0]])


def random_product_mixture(rng, nterms=3, rmax=0.995):
    """Synthesized passive mixture; the synthesis itself is the oracle."""
    weights = rng.dirichlet(np.ones(nterms))
    mat = np.zeros((4, 4), dtype=complex)
    for w in weights:
        c1 = disk_gram(rmax * np.sqrt(rng.random()), 2 * np.pi * rng.random())
        c2 = disk_gram(rmax * np.sqrt(rng.random()), 2 * np.pi * rng.random())
        mat += w * kron(c1, c2)
    return validate_super_gram(mat, 2)


# ---------------------------------------------------------------------------
# passive compatibility and the activity quantifier
# ---------------------------------------------------------------------------


def test_product_grams_are_passive_compatible():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sg = validate_super_gram(
            kron(disk_gram(rng.random(), rng.random()), disk_gram(rng.random(), rng.random())), 2
        )
        assert is_passive_compatible(sg, 1e-9)
        assert memory_activity_qubit(sg) < 1e-12


def test_cmax_is_not_passive_compatible(cmax):
    assert not is_passive_compatible(cmax, 1e-9)
    assert memory_activity_qubit(cmax) == pytest.approx(2.0)


def test_nmr_matrix_is_not_passive_compatible():
    sg = nmr_experimental_gram()
    assert not is_passive_compatible(sg, 1e-6)


def test_nmr_activity_value():
    assert abs(memory_activity_qubit(nmr_experimental_gram()) - 0.625) < 5e-4


def test_nmr_entry_values():
    sg = nmr_experimental_gram()
    assert sg.mat[0, 1] == -0.066 - 0.368j
    assert sg.mat[0, 3] == 0.701


def test_activity_rejects_wrong_dimension():
    with pytest.raises(DimensionError):
        memory_activity_qubit(family_gram(0.5, 0.5))


def test_l1_distance_cases():
    m = np.arange(4).reshape(2, 2).astype(complex)
    assert l1_distance(m, m) == 0.0
    assert l1_distance(np.eye(2), np.ones((2, 2))) == pytest.approx(2.0)
    with pytest.raises(DimensionError):
        l1_distance(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# nearest passive matrix (tightness of the activity quantifier)
# ---------------------------------------------------------------------------


def test_nearest_passive_fixed_point_on_products():
    sg = validate_super_gram(kron(disk_gram(0.7, 1.1), disk_gram(0.4, 2.3)), 2)
    near = nearest_passive_qubit(sg)
    assert max_abs(near.mat - sg.mat) < 1e-12


def test_nearest_passive_cmax(cmax):
    near = nearest_passive_qubit(cmax)
    assert is_passive_compatible(near, 1e-12)
    assert l1_distance(cmax.mat, near.mat) == pytest.approx(2.0)


def test_nearest_passive_nmr():
    sg = nmr_experimental_gram()
    near = nearest_passive_qubit(sg, tol=NMR_VALIDATION_TOL)
    assert is_passive_compatible(near, 1e-12)
    dist = l1_distance(sg.mat, near.mat)
    assert abs(dist - 0.625) < 5e-4
    assert abs(dist - memory_activity_qubit(sg)) < 1e-9


@pytest.mark.parametrize("seed", range(25))
def test_activity_tightness_on_random_supergrams(seed):
    sg = random_super_gram(2, seed)
    near = nearest_passive_qubit(sg)
    assert is_passive_compatible(near, 1e-9)
    assert abs(l1_distance(sg.mat, near.mat) - memory_activity_qubit(sg)) < 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_activity_lower_bounds_distance_to_any_passive_matrix(seed):
    rng = np.random.default_rng(seed + 5000)
    sg = random_super_gram(2, seed + 400)
    m = memory_activity_qubit(sg)
    for _ in range(10):
        passive = random_product_mixture(rng)
        assert l1_distance(sg.mat, passive.mat) >= m - 1e-9


def test_random_non_passive_supergrams_have_positive_activity():
    hits = 0
    for seed in range(20):
        sg = random_super_gram(2, seed + 900)
        if not is_passive_compatible(sg, 1e-9):
            hits += 1
            assert memory_activity_qubit(sg) > 1e-9
    assert hits > 10  # Haar families are generically active


# ---------------------------------------------------------------------------
# product decomposition
# ---------------------------------------------------------------------------


def test_decompose_single_product():
    c1 = _circle_gram(2 * np.pi * 5 / 64)
    c2 = _circle_gram(2 * np.pi * 20 / 64)
    sg = validate_super_gram(kron(c1, c2), 2)
    dec = decompose_product_qubit(sg, tol=1e-10)
    assert len(dec.terms) == 1
    assert dec.terms[0].weight == pytest.approx(1.0, abs=1e-10)
    assert max_abs(dec.reconstruct() - sg.mat) <= 1e-10


def test_decompose_all_ones():
    sg = validate_super_gram(np.ones((4, 4)), 2)
    dec = decompose_product_qubit(sg)
    assert len(dec.terms) == 1
    assert max_abs(dec.terms[0].c1.mat - np.ones((2, 2))) < 1e-12
    assert max_abs(dec.terms[0].c2.mat - np.ones((2, 2))) < 1e-12


def _assert_certificate(sg, dec, tol):
    assert len(dec.terms) <= 9  # Carathéodory bound
    assert max_abs(dec.reconstruct() - sg.mat) <= tol
    assert dec.residual <= tol
    assert abs(dec.total_weight() - 1.0) <= tol
    for term in dec.terms:
        assert term.weight > 0
        gram_matrix(term.c1.mat)
        gram_matrix(term.c2.mat)


@pytest.mark.parametrize("seed", range(10))
def test_decompose_synthesized_mixtures(seed):
    rng = np.random.default_rng(seed + 80)
    sg = random_product_mixture(rng)
    _assert_certificate(sg, decompose_product_qubit(sg, tol=1e-10), 1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_decompose_nearest_passive_matrices(seed):
    sg = nearest_passive_qubit(random_super_gram(2, seed + 700))
    _assert_certificate(sg, decompose_product_qubit(sg, tol=1e-10), 1e-10)


def test_decompose_nearest_passive_nmr():
    sg = nearest_passive_qubit(nmr_experimental_gram(), tol=NMR_VALIDATION_TOL)
    _assert_certificate(sg, decompose_product_qubit(sg, tol=1e-10), 1e-10)


def test_decompose_rejects_cmax(cmax):
    with pytest.raises(ValidationError) as err:
        decompose_product_qubit(cmax)
    assert err.value.check == "passive-compatibility"


OFF_GRID = kron(_circle_gram(0.7123), _circle_gram(2.4988))


def test_decompose_off_grid_extreme_point_is_one_exact_term():
    # A unit-modulus product is an extreme point: its only decomposition is itself.
    sg = validate_super_gram(OFF_GRID, 2)
    dec = decompose_product_qubit(sg, tol=1e-12)
    assert len(dec.terms) == 1
    assert max_abs(dec.reconstruct() - sg.mat) <= 1e-12


def test_decompose_search_failure_carries_residual():
    # Stretching the off-grid product away from the identity keeps the matrix
    # passive compatible but makes three eigenvalues -1e-3: no product mixture
    # fits it, and the search stops at its distance from the mixtures.
    sg = validate_super_gram(np.eye(4) + 1.001 * (OFF_GRID - np.eye(4)), 2, tol=2e-3)
    assert is_passive_compatible(sg, 1e-12)
    with pytest.raises(DecompositionError) as err:
        decompose_product_qubit(sg, tol=1e-9)
    assert 1e-9 < err.value.residual < 1e-2


def _dense_best_score(rest, n=4096):
    """Best Re<rest, C(theta) ⊗ C(phi)> over n equispaced theta.

    For fixed theta the score is Re<K, C(phi)> with K the 2x2 contraction of
    rest against C(theta), whose maximum over phi is Re tr K + |K10 + conj(K01)|.
    """
    thetas = 2 * np.pi * np.arange(n) / n
    cs = np.array([_circle_gram(t) for t in thetas])
    k = np.einsum("acbd,tab->tcd", rest.reshape(2, 2, 2, 2).conj(), cs)
    return float(((k[:, 0, 0] + k[:, 1, 1]).real + np.abs(k[:, 1, 0] + k[:, 0, 1].conj())).max())


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("radius", [1.0, 0.6])
def test_pricing_is_exact_on_product_residuals(seed, radius):
    # The best atom for w C(r, t1) ⊗ C(r, t2) sits at (t1, t2). Unit radius
    # makes the squared stationarity polynomial vanish identically; a radius
    # below 1 makes the maximizer a double root of it.
    rng = np.random.default_rng(seed + 4000)
    t1, t2 = 2 * np.pi * rng.random(2)
    theta, phi, _ = _best_atom(rng.uniform(0.1, 3) * kron(disk_gram(radius, t1), disk_gram(radius, t2)))
    assert abs(np.angle(np.exp(1j * (theta - t1)))) < 1e-12
    assert abs(np.angle(np.exp(1j * (phi - t2)))) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_pricing_finds_the_best_product_atom(seed):
    rng = np.random.default_rng(seed + 3000)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rest = g + g.conj().T
    theta, phi, score = _best_atom(rest)
    atom = kron(_circle_gram(theta), _circle_gram(phi))
    assert score == pytest.approx(float((rest.conj() * atom).sum().real), abs=1e-12)
    assert score >= _dense_best_score(rest) - 1e-12


# ---------------------------------------------------------------------------
# partial-transpose diagnostics
# ---------------------------------------------------------------------------


def test_ppt_product_gram():
    sg = validate_super_gram(kron(disk_gram(0.9, 0.3), disk_gram(0.8, 1.7)), 2)
    assert ppt_min_eig(sg) >= -1e-10


def test_ppt_dim_mismatch():
    with pytest.raises(DimensionError):
        ppt_min_eig(np.eye(6), (2, 2))
    with pytest.raises(DimensionError):
        ppt_min_eig(np.eye(6))  # raw matrix needs explicit dims


def test_ppt_family_values():
    assert abs(ppt_min_eig(family_gram(1, 1)) - (1 - np.sqrt(2))) < 1e-9
    assert abs(ppt_min_eig(family_gram(0.6, 0.6)) - (1 - np.sqrt(0.72))) < 1e-9
    assert ppt_min_eig(family_gram(0.6, 0.6)) > 0  # PPT despite |beta| > 0


@pytest.mark.parametrize("seed", range(15))
def test_qubit_supergrams_are_ppt(seed):
    # Consistency with separability of all 4x4 superchannel Gram matrices.
    sg = random_super_gram(2, seed + 1200)
    assert ppt_min_eig(sg) >= -1e-9


# ---------------------------------------------------------------------------
# the qutrit family and its realization
# ---------------------------------------------------------------------------


def test_family_gram_zero_parameters_is_identity():
    assert max_abs(family_gram(0, 0).mat - np.eye(9)) < 1e-15


def test_family_passive_compatibility_pattern():
    # alpha alone sits off the block diagonals, so the matrix stays passive
    # compatible; any nonzero beta lands on a block diagonal and breaks it.
    assert is_passive_compatible(family_gram(1, 0), 1e-9)
    assert not is_passive_compatible(family_gram(0.5, 0.3), 1e-9)
    assert not is_passive_compatible(family_gram(0, 1e-3), 1e-9)


def test_family_rejects_out_of_disk():
    with pytest.raises(ValidationError):
        family_gram(1.2, 0)
    with pytest.raises(ValidationError):
        family_realization(0, 1.0001)


def test_family_ppt_closed_form_grid():
    for alpha in (0, 0.3, 0.6 + 0.2j, 0.95, 1):
        for beta in (0, 0.4j, 0.7, 1):
            got = ppt_min_eig(family_gram(alpha, beta))
            assert abs(got - family_ppt_closed_form(alpha, beta)) < 1e-9


def test_family_realization_degenerate_vectors():
    # At unit modulus the mixed vectors collapse onto single basis states.
    pre, post = family_realization(1, 1)
    e0 = basis_vector(0, 9)
    psi_10 = post.unitaries[1] @ (pre.unitaries[0] @ e0)
    psi_20 = post.unitaries[2] @ (pre.unitaries[0] @ e0)
    assert max_abs(psi_10 - basis_vector(2, 9)) < 1e-12  # |0,2>
    assert max_abs(psi_20 - basis_vector(0, 9)) < 1e-12  # |0,0>
    recon = gram_from_controlled_unitaries(pre, post)
    assert max_abs(recon.mat - family_gram(1, 1).mat) < 1e-12


def test_family_realization_identity_case():
    pre, post = family_realization(0, 0)
    sg = gram_from_controlled_unitaries(pre, post)
    assert max_abs(sg.mat - np.eye(9)) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_family_realization_roundtrip(seed):
    rng = np.random.default_rng(seed)
    alpha = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    beta = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    pre, post = family_realization(alpha, beta)
    sg = gram_from_controlled_unitaries(pre, post)
    assert max_abs(sg.mat - family_gram(alpha, beta).mat) < 1e-9


def test_nmr_gram_is_valid_at_data_precision():
    sg = nmr_experimental_gram()
    assert sg.d == 2
    # the published matrix happens to be comfortably PSD despite rounding
    assert ppt_min_eig(sg) > -NMR_VALIDATION_TOL
