"""The measure layer: each named check trips exactly at its tolerance, through the validator that uses it."""

import math

import numpy as np
import pytest

from dephkit import (
    ValidationError,
    apply_super,
    channel_from_jamiolkowski,
    channel_from_kraus,
    classical_action,
    controlled_unitary_family,
    density_matrix,
    gram_action_on_affine,
    gram_matrix,
    identity_channel,
    validate_super_gram,
)
from dephkit.bloch import affine_map
from dephkit.linalg import measure
from dephkit.superchannels import SUPER_GRAM_CHECKS

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
    deviations = measure(x, checks)
    assert [name for name, value in deviations.items() if value > tol] == [check]
    with pytest.raises(ValidationError) as err:
        validate()
    assert err.value.check == check
    assert err.value.value == deviations[check]
    assert err.value.value == pytest.approx(1.5 * tol, rel=1e-5)

    x, checks, validate = _case(check, 0.5 * tol, tol)
    assert all(value <= tol for value in measure(x, checks).values())
    validate()


def _validator_failures():
    """One failing call per validator and kind of defect, with the check it must name."""
    skew = np.eye(4, dtype=complex)
    skew[0, 1] = 1e-3
    corner = np.ones((4, 4), dtype=complex)
    corner[0, 3] = 2.0  # not Hermitian; its symmetrization is not PSD on the identity channel's support
    half = channel_from_kraus([np.eye(2) / 2], trace_preserving=False)
    identity = affine_map(np.eye(3), np.zeros(3))
    return [
        ("finite-entries", lambda: density_matrix(np.array([[0.5, np.nan], [0.0, 0.5]]))),
        ("hermitian", lambda: density_matrix(skew / 4)),
        ("hermitian", lambda: gram_matrix(skew)),
        ("hermitian", lambda: validate_super_gram(skew, 2)),
        ("jamiolkowski-hermitian", lambda: gram_action_on_affine(validate_super_gram(corner, 2, tol=10.0), identity)),
        ("kraus-nonempty", lambda: channel_from_kraus([])),
        ("cp", lambda: channel_from_jamiolkowski(-np.eye(4) / 4)),
        ("trace-preserving", lambda: classical_action(half)),
        (
            "superchannel-output-cp",
            lambda: apply_super(validate_super_gram(corner + corner.T - 1, 2, tol=10.0), identity_channel(2)),
        ),
        ("superchannel-output-tp", lambda: apply_super(_bumped_corner(1e-3), identity_channel(2))),
        ("unitary", lambda: controlled_unitary_family([2 * np.eye(4), np.eye(4)])),
    ]


@pytest.mark.parametrize("check,call", _validator_failures())
def test_every_validation_error_carries_a_finite_value(check, call):
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.check == check
    assert err.value.value is not None and math.isfinite(err.value.value)
