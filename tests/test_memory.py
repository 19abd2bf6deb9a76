import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephkit import (
    DecompositionError,
    DimensionError,
    ValidationError,
    decompose_product_qubit,
    family_gram,
    family_ppt_closed_form,
    gram_from_controlled_unitaries,
    is_passive_compatible,
    kron,
    l1_distance,
    memory_activity_qubit,
    nearest_passive_qubit,
    nmr_experimental_gram,
    ppt_min_eig,
    random_super_gram,
    realize_super_gram,
    validate_super_gram,
)
from dephkit import memory
from dephkit.linalg import max_abs, measure, random_unitary
from dephkit.memory import NMR_VALIDATION_TOL, _circle_gram, _product_column
from reference import gram_matrix

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


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_passive_compatibility_refuses_a_nan_or_negative_tol(tol):
    with pytest.raises(ValueError, match="tolerance"):
        is_passive_compatible(random_super_gram(2, 0), tol)


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
    assert max_abs(dec.terms[0].c1 - np.ones((2, 2))) < 1e-12
    assert max_abs(dec.terms[0].c2 - np.ones((2, 2))) < 1e-12


def _assert_certificate(sg, dec, tol, max_terms=8):
    assert len(dec.terms) <= max_terms  # two per column of the closed form's factor
    assert max_abs(dec.reconstruct() - sg.mat) <= tol
    assert dec.residual <= tol
    assert abs(dec.total_weight() - 1.0) <= tol
    for term in dec.terms:
        assert term.weight > 0
        gram_matrix(term.c1)
        gram_matrix(term.c2)


@pytest.mark.parametrize("seed", range(10))
def test_decompose_synthesized_mixtures(seed):
    rng = np.random.default_rng(seed + 80)
    sg = random_product_mixture(rng)
    _assert_certificate(sg, decompose_product_qubit(sg, tol=1e-10), 1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_decompose_nearest_passive_matrices(seed):
    sg = nearest_passive_qubit(random_super_gram(2, seed + 700))
    _assert_certificate(sg, decompose_product_qubit(sg, tol=1e-10), 1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_decompose_factors_are_exact_circle_grams(seed):
    # Nothing checks the factors once they are built, so each must be
    # [[1, e^{-i theta}], [e^{i theta}, 1]] by construction: an exact unit
    # diagonal, exact Hermiticity and a unit-modulus off-diagonal entry.
    rng = np.random.default_rng(seed + 60)
    targets = [nearest_passive_qubit(random_super_gram(2, seed + 800)), random_product_mixture(rng)]
    eps = np.finfo(float).eps
    for sg in targets:
        for term in decompose_product_qubit(sg, tol=1e-10).terms:
            for c in (term.c1, term.c2):
                assert np.array_equal(np.diag(c), [1.0, 1.0])
                assert np.array_equal(c, c.conj().T)
                assert abs(abs(c[1, 0]) - 1.0) <= 4 * eps


def test_decompose_nearest_passive_nmr():
    sg = nearest_passive_qubit(nmr_experimental_gram(), tol=NMR_VALIDATION_TOL)
    _assert_certificate(sg, decompose_product_qubit(sg, tol=1e-10), 1e-10)


def _refuse_lapack(*args, **kwargs):
    raise AssertionError("called LAPACK")


@pytest.fixture
def no_lapack(monkeypatch):
    """Fail any certificate that takes the factored closed form or one of its LAPACK calls."""
    monkeypatch.setattr(memory, "psd_factors", _refuse_lapack)
    for name in ("svd", "eigvals", "solve", "eigh"):
        monkeypatch.setattr(np.linalg, name, _refuse_lapack)


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("seed", range(100))
def test_decompose_nearest_passive_sweep(seed, tol, no_lapack):
    # A random gate is full rank, so the dilation certifies it in scalar arithmetic.
    sg = nearest_passive_qubit(random_super_gram(2, seed))
    dec = decompose_product_qubit(sg, tol=tol)
    _assert_certificate(sg, dec, tol)
    assert max_abs(dec.reconstruct() - sg.mat) <= 1e-14


def circle_mixture(weights, thetas, phis):
    """sum_k w_k C(theta_k) ⊗ C(phi_k): a mixture of extreme points of the passive set."""
    weights = np.asarray(weights, dtype=float)
    mat = np.einsum("k,kab,kcd->acbd", weights / weights.sum(), _circle_gram(thetas), _circle_gram(phis))
    return validate_super_gram(mat.reshape(4, 4), 2)


@pytest.mark.parametrize(
    "weights,thetas,phis,nterms",
    [
        ([1, 1], [0, 1], [0, 2], 2),
        ([1, 1], [0, np.pi / 2], [0, np.pi / 3], 2),
        ([1, 1, 1], [0, 1, 2], [0, 2, 1], 3),
        ([1, 1], [0.3, 2.0], [1.1, 4.0], 2),
    ],
)
def test_decompose_boundary_mixtures_are_their_own_certificates(weights, thetas, phis, nterms):
    # Mixtures of unit-modulus products lie on the boundary of the passive set;
    # the closed form splits them back into their own atoms.
    sg = circle_mixture(weights, thetas, phis)
    dec = decompose_product_qubit(sg, tol=1e-12)
    _assert_certificate(sg, dec, 1e-12)
    assert len(dec.terms) == nterms


# None draws independent angles; a number spreads them that far around one angle.
SPREADS = st.sampled_from([None, 0.0] + [10.0**-k for k in range(3, 14)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), SPREADS, SPREADS)
def test_decompose_circle_mixtures(nterms, seed, theta_spread, phi_spread):
    rng = np.random.default_rng(seed)

    def angles(spread):
        if spread is None:
            return 2 * np.pi * rng.random(nterms)
        return 2 * np.pi * rng.random() + spread * rng.standard_normal(nterms)

    sg = circle_mixture(rng.random(nterms) + 0.05, angles(theta_spread), angles(phi_spread))
    _assert_certificate(sg, decompose_product_qubit(sg, tol=1e-12), 1e-12)


@pytest.mark.parametrize("spread", [0.0, 1e-12])
@pytest.mark.parametrize("seed", range(10))
def test_decompose_same_theta_mixtures(seed, spread):
    # X has one eigenvalue of multiplicity up to 4: eig's eigenvectors for it
    # are not orthogonal, eigh's of the Cayley transform are.
    rng = np.random.default_rng(seed + 6000)
    n = 3 + seed % 4
    sg = circle_mixture(rng.random(n) + 0.05, 1.0 + spread * rng.standard_normal(n), 2 * np.pi * rng.random(n))
    _assert_certificate(sg, decompose_product_qubit(sg, tol=1e-12), 1e-12)


@pytest.mark.parametrize("spread", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11])
@pytest.mark.parametrize("seed", range(10))
def test_decompose_same_phi_mixtures(seed, spread):
    # The first factor's partner marginal is then nearly rank 1, so the split
    # must run on the second factor to keep the fit within 1e-12.
    rng = np.random.default_rng(seed + 6100)
    n = 3 + seed % 4
    sg = circle_mixture(rng.random(n) + 0.05, 2 * np.pi * rng.random(n), 2.0 + spread * rng.standard_normal(n))
    _assert_certificate(sg, decompose_product_qubit(sg, tol=1e-12), 1e-12)


@pytest.mark.parametrize("mat", [np.eye(4), kron(np.eye(2), disk_gram(0.5, 1.0))])
def test_decompose_block_diagonal_targets_without_lapack(mat, no_lapack):
    # B = 0 makes K = 0: both singular values vanish, so the dilation's
    # singular vectors and its unitaries ±i I rest on the fallback bases.
    # Both unitaries share that basis, so their 8 atoms are 4, each twice.
    sg = validate_super_gram(mat, 2)
    dec = decompose_product_qubit(sg, tol=1e-12)
    _assert_certificate(sg, dec, 1e-12)
    assert max_abs(dec.reconstruct() - sg.mat) <= 1e-14
    assert len(dec.terms) == 4


def _fit_residual(target, atoms, weights):
    return max_abs(target - (_product_column(*atoms.T) @ weights).reshape(4, 4))


def test_decompose_falls_back_to_the_factored_form(monkeypatch):
    # Four products with theta and phi both spread by 1e-4: T is full rank, but
    # both marginals are nearly pure, so A^{-1/2} loses accuracy and the
    # dilation's fit is not exact; the factored form must certify it.
    rng = np.random.default_rng(2)
    sg = circle_mixture(rng.random(4) + 0.05, 1.0 + 1e-4 * rng.standard_normal(4), 2.0 + 1e-4 * rng.standard_normal(4))
    dilation, factored = memory._closed_form_atoms(sg.mat)
    assert _fit_residual(sg.mat, *dilation) > 1e-12
    assert _fit_residual(sg.mat, *factored) <= 1e-14
    forms = []
    for name in ("_dilation_terms", "_factored_terms"):
        form = getattr(memory, name)
        monkeypatch.setattr(memory, name, lambda t, form=form, name=name: forms.append(name) or form(t))
    _assert_certificate(sg, decompose_product_qubit(sg, tol=1e-12), 1e-12)
    assert forms == ["_dilation_terms", "_factored_terms"]


def test_decompose_accuracy_does_not_follow_tol():
    # Five products with theta and phi both spread by 1e-5: the dilation fits
    # to 6.4e-7, within tol 1e-6, but is not exact, so the factored form runs
    # and its far better fit is kept.
    rng = np.random.default_rng(1)
    sg = circle_mixture(rng.random(5) + 0.05, 1.0 + 1e-5 * rng.standard_normal(5), 2.0 + 1e-5 * rng.standard_normal(5))
    dec = decompose_product_qubit(sg, tol=1e-6)
    _assert_certificate(sg, dec, 1e-6)
    assert max_abs(dec.reconstruct() - sg.mat) <= 1e-14


@pytest.mark.parametrize("seed", range(10))
def test_decompose_repairs_a_partial_closed_form(monkeypatch, seed):
    # With the dilation's first 1-3 terms missing, its fit is far from exact,
    # so the factored form must run, and its exact fit is the one kept.
    dilation = memory._dilation_terms
    monkeypatch.setattr(memory, "_dilation_terms", lambda t: dilation(t)[seed % 3 + 1 :])
    sg = nearest_passive_qubit(random_super_gram(2, seed + 800))
    partial, _ = memory._closed_form_atoms(sg.mat)
    assert _fit_residual(sg.mat, *partial) > 1e-10
    dec = decompose_product_qubit(sg, tol=1e-10)
    _assert_certificate(sg, dec, 1e-10)
    assert max_abs(dec.reconstruct() - sg.mat) <= 1e-14


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("seed", range(5))
def test_decompose_averages_deviating_block_diagonals(seed, tol):
    # Block diagonals that differ by 2 * deviation <= tol pass the passive
    # check. Read off the averaged matrix, the certificate misses the caller's
    # matrix by exactly the deviation, the least any passive matrix can.
    rng = np.random.default_rng(seed + 6300)
    mat = nearest_passive_qubit(random_super_gram(2, seed + 6300)).mat.copy()
    shift = 0.5 * tol * np.exp(2j * np.pi * rng.random())
    mat[0, 2] += shift
    mat[1, 3] -= shift
    mat[2, 0], mat[3, 1] = np.conj(mat[0, 2]), np.conj(mat[1, 3])
    sg = validate_super_gram(mat, 2, tol=tol)
    dec = decompose_product_qubit(sg, tol=tol)
    _assert_certificate(sg, dec, tol)
    assert abs(dec.residual - abs(shift)) <= 1e-15


def pushed_below_psd(family, seed, tol):
    """A passive target with eigenvalues at about -tol, on the boundary of the product mixtures within tol.

    "shift" maps T to (1 + tol) T - tol I, which moves each zero eigenvalue of
    a circle mixture of 1-3 products to -tol. "negeig" lowers 1-3 of those
    eigenvalues by tol along their eigenvectors, averages the block diagonals
    and rescales to a unit diagonal, a congruence that keeps the inertia.
    """
    rng = np.random.default_rng(seed + 6400)
    n = 1 + seed % 3
    t = circle_mixture(rng.random(n) + 0.05, 2 * np.pi * rng.random(n), 2 * np.pi * rng.random(n)).mat
    if family == "shift":
        return validate_super_gram((1 + tol) * t - tol * np.eye(4), 2, tol=2 * tol)
    v = np.linalg.eigh(t)[1][:, : 1 + seed % (4 - n)]
    t = nearest_passive_qubit(validate_super_gram(t - tol * v @ v.conj().T, 2, tol=2 * tol), tol=2 * tol).mat
    scale = np.sqrt(np.diag(t).real)
    return validate_super_gram(t / np.outer(scale, scale), 2, tol=2 * tol)


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", ["shift", "negeig"])
def test_decompose_certifies_targets_pushed_below_psd(family, seed, tol):
    sg = pushed_below_psd(family, seed, tol)
    assert np.linalg.eigvalsh(sg.mat)[0] < -tol / 2
    _assert_certificate(sg, decompose_product_qubit(sg, tol=tol), tol)


def test_decompose_within_an_infinite_tol_has_no_terms():
    dec = decompose_product_qubit(validate_super_gram(np.ones((4, 4)), 2), tol=math.inf)
    assert dec.terms == ()
    assert dec.residual == 1.0


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_decompose_refuses_a_nan_or_negative_tol(tol):
    sg = nearest_passive_qubit(random_super_gram(2, 700))
    with pytest.raises(ValueError, match="tolerance"):
        decompose_product_qubit(sg, tol=tol)


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
    # fits it, and the closed form's fit of its block-diagonal average leaves
    # a residual of 7.5e-4.
    sg = validate_super_gram(np.eye(4) + 1.001 * (OFF_GRID - np.eye(4)), 2, tol=2e-3)
    assert is_passive_compatible(sg, 1e-12)
    with pytest.raises(DecompositionError) as err:
        decompose_product_qubit(sg, tol=1e-9)
    assert 1e-9 < err.value.residual < 1e-2


ROUNDING_LEVEL = f"{memory._EXACT_FIT:.3e}"


def test_refusal_beyond_rounding_says_not_a_product_mixture():
    sg = validate_super_gram(np.eye(4) + 1.001 * (OFF_GRID - np.eye(4)), 2, tol=2e-3)
    with pytest.raises(DecompositionError) as err:
        decompose_product_qubit(sg, tol=1e-9)
    assert "not a product mixture within tol" in str(err.value)
    assert "rounding level" not in str(err.value)


@pytest.mark.parametrize("tol", [0.0, 1e-15])
def test_refusal_at_rounding_level_names_the_certifying_tol(tol):
    # Exact circle mixtures of 1-5 atoms fit to rounding. A refusal below that
    # level says so, and the tol it names certifies the same matrix.
    rng = np.random.default_rng(3)
    refused = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        mat = (_product_column(*(2 * np.pi * rng.random((2, n)))) @ rng.dirichlet(np.ones(n))).reshape(4, 4)
        sg = validate_super_gram(mat, 2)
        try:
            decompose_product_qubit(sg, tol=tol)
        except DecompositionError as err:
            refused += 1
            assert err.residual <= memory._EXACT_FIT
            message = str(err)
            assert f"rounding level {ROUNDING_LEVEL}" in message and "not a product mixture" not in message
            _assert_certificate(sg, decompose_product_qubit(sg, tol=float(ROUNDING_LEVEL)), float(ROUNDING_LEVEL))
    assert refused > 0


def test_bloch_eigenbasis_of_a_subnormal_vector():
    # A blend onto a product of radius 2.4e-99 hands the dilation a Bloch
    # vector of 2.3e-312, whose squared norm underflows to 0.
    for hz, hxy in [(0.0, 2.3e-312 + 0j), (-5e-324, 5e-324j), (1e-310, -3e-311 + 2e-311j)]:
        vw = np.array(memory._bloch_eigenbasis(hz, hxy)).T
        assert max_abs(vw.conj().T @ vw - np.eye(2)) < 1e-15
        # h·σ in units of its largest component, against its eigenvalues ±|h| there
        scale = max(abs(hz), abs(hxy.real), abs(hxy.imag))
        z, x, y = hz / scale, hxy.real / scale, hxy.imag / scale
        h = np.array([[z, x - 1j * y], [x + 1j * y, -z]])
        r = math.sqrt(abs(np.linalg.det(h)))
        assert max_abs(h @ vw - vw * [r, -r]) < 1e-15
    sg = validate_super_gram(kron(disk_gram(2.3791003711732256e-99, 0.5), disk_gram(2.3791003711732256e-99, 4.0)), 2)
    _assert_certificate(sg, decompose_product_qubit(sg, tol=1e-12), 1e-12)


@pytest.mark.parametrize("seed", range(200))
@pytest.mark.parametrize("radius", [1.0, 0.9, 0.6, 0.3])
def test_pricing_is_exact_on_product_residuals(seed, radius):
    """The closed form is exact on products of two disk points.

    The name is that of the column-generation pricing test this replaced; its
    ids are kept so that results of earlier runs stay comparable.
    """
    # C(r, t1) ⊗ C(r, t2) is a rank-1 target at unit radius, read off by the
    # factored form as the single atom (t1, t2), and a full-rank one below it,
    # read off by the dilation. Either way its atoms price it exactly.
    rng = np.random.default_rng(seed + 4000)
    t1, t2 = 2 * np.pi * rng.random(2)
    sg = validate_super_gram(kron(disk_gram(radius, t1), disk_gram(radius, t2)), 2)
    dec = decompose_product_qubit(sg, tol=1e-12)
    _assert_certificate(sg, dec, 1e-12)
    assert max_abs(dec.reconstruct() - sg.mat) <= 1e-14
    if radius == 1.0:
        (term,) = dec.terms
        assert abs(np.angle(term.c1[1, 0] * np.exp(-1j * t1))) < 1e-12
        assert abs(np.angle(term.c2[1, 0] * np.exp(-1j * t2))) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_pricing_finds_the_best_product_atom(seed):
    """A pure factor of a product target appears in every atom of its certificate (name kept, as above)."""
    # A pure factor C(t) is an extreme point of its disk, so every atom of a
    # decomposition of C(t) ⊗ C(r, t2), or of C(r, t2) ⊗ C(t), carries C(t)
    # on that side; odd seeds put it second, which the closed form swaps.
    rng = np.random.default_rng(seed + 3000)
    t, t2 = 2 * np.pi * rng.random(2)
    pure = seed % 2
    factors = [disk_gram(1.0, t), disk_gram(rng.uniform(0.1, 0.95), t2)]
    sg = validate_super_gram(kron(*factors[:: 1 - 2 * pure]), 2)
    dec = decompose_product_qubit(sg, tol=1e-12)
    _assert_certificate(sg, dec, 1e-12)
    assert max_abs(dec.reconstruct() - sg.mat) <= 1e-14
    for term in dec.terms:
        assert max_abs((term.c1, term.c2)[pure] - factors[0]) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.floats(0, 1), st.floats(0, 1))
def test_pricing_matches_the_reference_kernel(seed, blend, radius):
    """The certificate never fits worse than the LAPACK factored form (name kept, as above)."""
    # Random gates blended towards a product target, which is rank deficient
    # at radius 1. The scalar dilation is kept only when its fit is exact to
    # _EXACT_FIT; the certificate never fits worse than the LAPACK factored
    # form, the reference.
    rng = np.random.default_rng(seed)
    gate = nearest_passive_qubit(random_super_gram(2, seed)).mat
    t1, t2 = 2 * np.pi * rng.random(2)
    product = kron(disk_gram(radius, t1), disk_gram(radius, t2))
    sg = validate_super_gram((1 - blend) * gate + blend * product, 2)
    *_, factored = memory._closed_form_atoms(sg.mat)
    dec = decompose_product_qubit(sg, tol=1e-12)
    _assert_certificate(sg, dec, 1e-12)
    assert dec.residual <= max(memory._EXACT_FIT, _fit_residual(sg.mat, *factored))


def _su2(gamma, omega, n):
    """e^{i gamma} (cos omega I + i sin omega n·σ) for a unit vector n, as a matrix."""
    x, y, z = n
    return np.exp(1j * gamma) * (math.cos(omega) * np.eye(2) + 1j * math.sin(omega) * np.array([[z, x - 1j * y], [x + 1j * y, -z]]))


@pytest.mark.parametrize(
    "u",
    [
        np.exp(0.7j) * np.eye(2),  # one eigenvalue of multiplicity 2: any orthonormal basis
        -np.eye(2),
        _su2(0.0, 1e-12, (0.6, 0.0, 0.8)),  # I + 1e-12 iH to rounding
        _su2(2.5, 1e-12, (0.0, -0.6, -0.8)),
        _su2(-1.0, np.pi / 2, (1.0, 0.0, 0.0)),
        np.diag([1.0, -1.0]),
        *(random_unitary(2, np.random.default_rng(seed)) for seed in range(6)),
    ],
)
def test_unitary_eigenbasis_is_orthonormal_and_reproduces_u(u):
    pairs = memory._unitary_eigenpairs(tuple(u.ravel().tolist()))
    vecs = np.array([v for _, v in pairs]).T
    assert max_abs(vecs.conj().T @ vecs - np.eye(2)) <= 1e-15
    assert max_abs(sum(value * np.outer(v, np.conj(v)) for value, v in pairs) - u) <= 1e-15


@pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.7123, 2.4988), (np.pi, -np.pi / 2), (5.9, 3.1)])
def test_product_column_matches_kron(theta, phi):
    assert max_abs(_product_column(theta, phi) - kron(_circle_gram(theta), _circle_gram(phi)).ravel()) <= 1e-15


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
        realize_super_gram(family_gram(0, 1.0001))


def test_family_disk_check_follows_tol():
    alpha = 1 + 5e-13
    assert family_ppt_closed_form(alpha, 0) == pytest.approx(-5e-13, abs=1e-15)
    with pytest.raises(ValidationError) as err:
        family_ppt_closed_form(alpha, 0, tol=1e-13)
    assert err.value.check == "unit-disk"
    assert err.value.value == pytest.approx(5e-13, rel=1e-3)


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_family_refuses_a_nan_or_negative_tol(tol):
    # 2 lies outside the unit disk, so no tol may let the closed form answer.
    with pytest.raises(ValueError, match="tolerance"):
        family_ppt_closed_form(2, 0, tol=tol)


@pytest.mark.parametrize("bad", [math.nan, complex("nan"), complex(0.5, math.nan), math.inf])
@pytest.mark.parametrize("position", ["alpha", "beta"])
@pytest.mark.parametrize("fn", [family_gram, family_ppt_closed_form])
def test_family_refuses_a_non_finite_parameter(fn, position, bad):
    # max(|a|, |b|) drops a NaN modulus, so the disk check alone let a NaN through.
    params = {"alpha": 0.5, "beta": 0.5, position: bad}
    with pytest.raises(ValidationError) as err:
        fn(**params)
    assert err.value.check == "finite-entries"


@pytest.mark.parametrize("alpha,beta", [(0.8, 0.5j), (1, 0), (0.3, -1j)])
def test_family_realization_unitaries_are_exact_and_deterministic(alpha, beta):
    first = realize_super_gram(family_gram(alpha, beta))
    second = realize_super_gram(family_gram(alpha, beta))
    for fam, again in zip(first, second):
        for u, v in zip(fam.unitaries, again.unitaries):
            assert measure(u, ("unitary",), 1e-14)[0].value <= 1e-14
            assert np.array_equal(u, v)


def test_family_ppt_closed_form_grid():
    for alpha in (0, 0.3, 0.6 + 0.2j, 0.95, 1):
        for beta in (0, 0.4j, 0.7, 1):
            got = ppt_min_eig(family_gram(alpha, beta))
            assert abs(got - family_ppt_closed_form(alpha, beta)) < 1e-9


def test_family_realization_degenerate_vectors():
    # At unit modulus the matrix is singular: psi_10 = psi_02 and psi_20 = psi_00.
    pre, post = realize_super_gram(family_gram(1, 1))
    recon = gram_from_controlled_unitaries(pre, post)
    assert max_abs(recon.mat - family_gram(1, 1).mat) < 1e-12


def test_family_realization_identity_case():
    pre, post = realize_super_gram(family_gram(0, 0))
    sg = gram_from_controlled_unitaries(pre, post)
    assert max_abs(sg.mat - np.eye(9)) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_family_realization_roundtrip(seed):
    rng = np.random.default_rng(seed)
    alpha = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    beta = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    pre, post = realize_super_gram(family_gram(alpha, beta))
    sg = gram_from_controlled_unitaries(pre, post)
    assert max_abs(sg.mat - family_gram(alpha, beta).mat) < 1e-9


def test_nmr_gram_is_valid_at_data_precision():
    sg = nmr_experimental_gram()
    assert sg.d == 2
    # the published matrix happens to be comfortably PSD despite rounding
    assert ppt_min_eig(sg) > -NMR_VALIDATION_TOL
