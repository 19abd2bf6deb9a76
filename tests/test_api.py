import dataclasses
import inspect
import types

import pytest

import dephkit
from dephkit import bloch, channels, io, linalg, superchannels

# The public API, pinned: a name added to or removed from the package shows up
# as a diff here, next to the CHANGES.md entry that says why.
PUBLIC_NAMES = [
    "AffineMap", "BipartiteChannel", "Channel", "ControlledUnitaryFamily", "DEFAULT_TOL",
    "DecompositionError", "DephkitError", "DimensionError", "NotDephasingRealizationError",
    "ProductDecomposition", "ProductTerm", "RealizationReport", "SimulationConsistencyReport",
    "SuperGram", "ValidationError", "affine_from_channel", "affine_from_jamiolkowski",
    "affine_map", "apply_channel", "apply_super", "bipartite_channel",
    "channel_from_jamiolkowski", "channel_from_kraus", "circuit_oracle", "classical_action",
    "coherence_generating_power", "controlled_unitary_channel", "controlled_unitary_family",
    "decompose_product_qubit", "density_matrix", "family_gram", "family_ppt_closed_form",
    "gram_action_on_affine", "gram_from_controlled_unitaries", "gram_from_simulation",
    "is_passive_compatible", "jamiolkowski", "jamiolkowski_from_affine", "kron", "l1_coherence",
    "l1_distance", "memory_activity_qubit", "min_eig_hermitian", "nearest_passive_qubit",
    "nmr_experimental_gram", "partial_trace", "partial_transpose", "ppt_min_eig",
    "random_channel", "random_controlled_family", "random_super_gram", "realize_super_gram",
    "validate_super_gram", "verify_dephasing_realization", "verify_simulation_consistency",
]


def test_public_api_is_pinned():
    # Submodules are left out: which of them are attributes depends on what was imported.
    public = sorted(
        name
        for name, value in vars(dephkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES


# Test-only constructors and independent routes kept in tests/reference.py, and
# the Kraus sum that the "trace-preserving" check of linalg defines.
MOVED_TO_TESTS = [
    "identity_channel", "unitary_channel", "maximally_dephasing_channel", "random_density_matrix",
    "identity_super_gram", "xy_plane_projection", "pauli_anchor_defect", "dephasing_channel",
    "gram_matrix", "max_entangled_state", "superop_from_kraus", "reshuffle",
]


@pytest.mark.parametrize("module", [dephkit, channels, superchannels, bloch, linalg], ids=lambda m: m.__name__)
def test_test_only_names_are_not_in_the_package(module):
    assert [name for name in MOVED_TO_TESTS if hasattr(module, name)] == []


def test_channel_has_no_kraus_sum():
    assert not hasattr(dephkit.Channel, "kraus_sum")


def test_realization_report_carries_only_its_checks_and_the_extracted_matrix():
    assert [f.name for f in dataclasses.fields(dephkit.RealizationReport)] == ["checks", "gram_entries", "gram_checks"]


def test_options_with_one_value_in_use_are_gone():
    assert list(inspect.signature(dephkit.partial_transpose).parameters) == ["m", "dims"]
    assert list(inspect.signature(io.write_channel).parameters) == ["path", "ch"]
