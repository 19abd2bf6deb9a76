"""The measure layer: each named check trips exactly at its tolerance, through the validator that uses it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CMAX
from dephkit import (
    DimensionError,
    ValidationError,
    apply_super,
    bloch,
    channel_from_jamiolkowski,
    channel_from_kraus,
    controlled_unitary_family,
    decompose_product_qubit,
    density_matrix,
    family_gram,
    gram_action_on_affine,
    jamiolkowski,
    random_channel,
    superchannels,
    validate_super_gram,
)
from dephkit.bloch import affine_map
from dephkit.io import FileFormatError, read_channel, write_matrix
from dephkit.linalg import DEFAULT_TOL, Check, dagger, enforce, kron, measure, random_unitary, require
from dephkit.superchannels import SUPER_GRAM_CHECKS
from reference import gram_matrix, identity_channel

TOLS = (1e-9, 1e-6)


def _bumped_corner(defect):
    """All-ones qubit superchannel matrix with entry (0, 0) raised by 2 * defect.

    Schur-multiplied into the identity channel's Jamiolkowski state it leaves
    the result Hermitian and PSD and moves Tr_1 J off I/2 by exactly defect.
    """
    mat = np.ones((4, 4), dtype=complex)
    mat[0, 0] += 2 * defect
    return validate_super_gram(mat, 2, tol=1.0)


def _case(check, defect, tol):
    """(the object that carries the defect, the checks it is held to, the validator call)."""
    if check == "unit-diagonal":
        m = np.eye(2, dtype=complex)
        m[0, 0] += defect
        return m, ("unit-diagonal", "hermitian", "psd"), lambda: gram_matrix(m, tol=tol)
    if check == "hermitian":
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = defect
        return m, ("hermitian", "unit-trace", "psd"), lambda: density_matrix(m, tol=tol)
    if check == "psd":
        m = np.array([[1, 1 + defect], [1 + defect, 1]], dtype=complex)  # eigenvalues 2 + defect, -defect
        return m, ("unit-diagonal", "hermitian", "psd"), lambda: gram_matrix(m, tol=tol)
    if check == "unit-trace":
        m = np.diag([0.5 + defect, 0.5]).astype(complex)
        return m, ("hermitian", "unit-trace", "psd"), lambda: density_matrix(m, tol=tol)
    if check == "equal-diagonal-blocks":
        m = np.eye(4, dtype=complex)
        m[2, 3] = m[3, 2] = defect
        return m, SUPER_GRAM_CHECKS, lambda: validate_super_gram(m, 2, tol=tol)
    if check == "trace-preserving":
        kraus = (np.sqrt(1 + defect) * np.eye(2, dtype=complex),)
        return kraus, ("trace-preserving",), lambda: channel_from_kraus(kraus, tol=tol)
    if check == "jamiolkowski-tp":
        sg = _bumped_corner(defect)
        jam = 0.5 * np.outer([1, 0, 0, 1], [1, 0, 0, 1]) * sg.mat
        identity = affine_map(np.eye(3), np.zeros(3))
        checks = ("hermitian", "psd", "jamiolkowski-tp")
        return jam, checks, lambda: gram_action_on_affine(sg, identity, tol=tol)
    if check == "unitary":
        u = np.sqrt(1 + defect) * np.eye(4, dtype=complex)
        return u, ("unitary",), lambda: controlled_unitary_family([u, np.eye(4)], tol=tol)
    raise ValueError(check)


CHECKS = (
    "unit-diagonal", "hermitian", "psd", "unit-trace", "equal-diagonal-blocks",
    "trace-preserving", "jamiolkowski-tp", "unitary",
)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("check", CHECKS)
def test_check_trips_exactly_above_its_tolerance(check, tol):
    x, checks, validate = _case(check, 1.5 * tol, tol)
    records = measure(x, checks, tol)
    assert [(c.name, c.threshold) for c in records] == [(name, tol) for name in checks]
    assert [c.name for c in records if c.value > tol] == [check]
    with pytest.raises(ValidationError) as err:
        validate()
    assert err.value.check == check
    assert err.value.value == next(c.value for c in records if c.name == check)
    assert err.value.value == pytest.approx(1.5 * tol, rel=1e-5)

    x, checks, validate = _case(check, 0.5 * tol, tol)
    assert all(c.value <= tol for c in measure(x, checks, tol))
    validate()


def _validator_failures():
    """One failing call per validator and kind of defect, with the check it must name."""
    skew = np.eye(4, dtype=complex)
    skew[0, 1] = 1e-3
    corner = np.ones((4, 4), dtype=complex)
    corner[0, 3] = 2.0  # not Hermitian; its symmetrization is not PSD on the identity channel's support
    identity = affine_map(np.eye(3), np.zeros(3))
    passive_not_psd = np.eye(4, dtype=complex)  # constant block diagonals, off-diagonal entries 1.5
    passive_not_psd[0, 2] = passive_not_psd[2, 0] = passive_not_psd[1, 3] = passive_not_psd[3, 1] = 1.5
    nan_lam = np.eye(3)
    nan_lam[0, 0] = np.nan
    return [
        ("finite-entries", lambda: density_matrix(np.array([[0.5, np.nan], [0.0, 0.5]]))),
        ("hermitian", lambda: density_matrix(skew / 4)),
        ("hermitian", lambda: gram_matrix(skew)),
        ("hermitian", lambda: validate_super_gram(skew, 2)),
        ("hermitian", lambda: gram_action_on_affine(validate_super_gram(corner, 2, tol=10.0), identity)),
        ("kraus-nonempty", lambda: channel_from_kraus([])),
        ("psd", lambda: channel_from_jamiolkowski(np.diag([0.75, 0, -0.25, 0.5]))),
        (
            "psd",
            lambda: apply_super(validate_super_gram(corner + corner.T - 1, 2, tol=10.0), identity_channel(2)),
        ),
        ("jamiolkowski-tp", lambda: apply_super(_bumped_corner(1e-3), identity_channel(2))),
        ("unitary", lambda: controlled_unitary_family([2 * np.eye(4), np.eye(4)])),
        ("unit-disk", lambda: family_gram(1.2, 0)),
        ("passive-compatibility", lambda: decompose_product_qubit(validate_super_gram(CMAX, 2))),
        pytest.param(
            "product-decomposition",
            lambda: decompose_product_qubit(validate_super_gram(passive_not_psd, 2, tol=10.0)),
            id="product-decomposition-not-psd",
        ),
        pytest.param("finite-entries", lambda: affine_map(nan_lam, np.zeros(3)), id="finite-entries-affine"),
        pytest.param("finite-entries", lambda: family_gram(complex(np.nan, 0), 0), id="finite-entries-disk"),
    ]


@pytest.mark.parametrize("check,call", _validator_failures())
def test_every_validation_error_carries_a_finite_value(check, call):
    if check == "kraus-nonempty":  # a channel of no Kraus operators has nothing to measure: a shape fault
        with pytest.raises(DimensionError, match="at least one Kraus operator"):
            call()
        return
    with pytest.raises(ValidationError) as err:
        call()
    record = err.value.record
    assert record.name == err.value.check == check
    assert isinstance(record.threshold, (int, float)) and math.isfinite(record.threshold)
    assert not record.passed
    assert err.value.value is not None and math.isfinite(err.value.value)
    assert f"{record.value:.3e}" in str(err.value)


def _defective_jamiolkowski(check):
    """A qubit J whose first failing check, in the order hermitian, jamiolkowski-tp, psd, is check."""
    jam = jamiolkowski(random_channel(2, 2, seed=3))
    if check == "hermitian":
        jam[0, 1] += 0.1
        jam[1, 0] -= 0.1  # a skew defect of 0.2
    elif check == "jamiolkowski-tp":
        jam[0, 0] += 1e-3
    else:
        jam = np.diag([0.75, 0, -0.25, 0.5]).astype(complex)  # Tr_1 J = I/2 exactly, λ_min = -0.25
    return jam


@pytest.mark.parametrize("check", ["hermitian", "jamiolkowski-tp", "psd"])
def test_every_jamiolkowski_site_refuses_with_the_same_record(check, tmp_path, monkeypatch):
    """channel_from_jamiolkowski, apply_super, gram_action_on_affine and the untagged reader judge
    one J alike. Both transformations are handed J itself: the all-ones Gram matrix leaves it as is."""
    jam = _defective_jamiolkowski(check)
    ones = validate_super_gram(np.ones((4, 4)), 2)
    monkeypatch.setattr(superchannels, "jamiolkowski", lambda ch: jam)
    monkeypatch.setattr(bloch, "jamiolkowski_from_affine", lambda a: jam)
    records = []
    for call in (
        lambda: channel_from_jamiolkowski(jam),
        lambda: apply_super(ones, identity_channel(2)),
        lambda: gram_action_on_affine(ones, affine_map(np.eye(3), np.zeros(3))),
    ):
        with pytest.raises(ValidationError) as err:
            call()
        records.append(err.value.record)
    path = tmp_path / "bare.json"
    write_matrix(path, jam)
    with pytest.raises(FileFormatError) as err:
        read_channel(path)
    records.append(err.value.__cause__.record)
    assert records == [Check(check, records[0].value, DEFAULT_TOL)] * 4


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", [2, 3])
def test_jamiolkowski_psd_trips_exactly_above_its_tolerance(d, tol):
    """An exactly trace-preserving J with λ_min = -1.5·tol is refused, one at -0.5·tol accepted."""
    rng = np.random.default_rng(d)
    local = kron(random_unitary(d, rng), random_unitary(d, rng))  # keeps the spectrum and Tr_1 J = I/d
    for factor in (1.5, 0.5):
        diag = np.zeros((d, d))  # diag[a, c] = J[(a, c), (a, c)], each column summing to 1/d
        diag[0], diag[1] = 1 / d + factor * tol, -factor * tol
        jam = local @ np.diag(diag.ravel()) @ dagger(local)
        if factor > 1:
            with pytest.raises(ValidationError) as err:
                channel_from_jamiolkowski(jam, tol=tol)
            assert err.value.check == "psd"
            assert err.value.value == pytest.approx(1.5 * tol, rel=1e-5)
        else:
            assert len(channel_from_jamiolkowski(jam, tol=tol).kraus) == d


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_nan_or_negative_tol_is_refused(tol):
    with pytest.raises(ValueError, match="tolerance must be a nonnegative number"):
        validate_super_gram(np.ones((4, 4)), 2, tol=tol)


# The checks whose kernels also measure a stack of matrices (..., k, k).
STACKED = ("unit-diagonal", "hermitian", "psd", "unit-trace", "unitary")


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("check", STACKED)
def test_one_bad_matrix_in_a_stack_trips_its_check(check, tol):
    good, checks, _ = _case(check, 0.5 * tol, tol)
    bad, _, _ = _case(check, 1.5 * tol, tol)
    stack = np.stack([good, bad, good])
    records = measure(stack, checks, tol)
    assert [c.value for c in records] == [max(measure(m, (name,), tol)[0].value for m in stack) for name in checks]
    with pytest.raises(ValidationError) as err:
        require(stack, checks, tol)
    assert err.value.check == check
    assert err.value.value == next(c.value for c in measure(bad, checks, tol) if c.name == check)
    require(np.stack([good, good]), checks, tol)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 10**6))
def test_stack_measure_is_the_worst_of_its_matrices(n, k, seed):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))
    per_matrix = [measure(m, STACKED, TOLS[0]) for m in stack]
    worst = [max(records[i].value for records in per_matrix) for i in range(len(STACKED))]
    assert [c.value for c in measure(stack, STACKED, TOLS[0])] == worst


def test_nan_deviation_fails_its_check():
    enforce(Check("unit-diagonal", 0.0, 1e-9), "matrix")
    with pytest.raises(ValidationError) as err:
        enforce(Check("hermitian", math.nan, 1e-9), "matrix")
    assert err.value.check == "hermitian"
