"""Dephasing noise on quantum gates modeled as Gram-matrix superchannels."""

from .bloch import (
    AffineMap,
    affine_from_channel,
    affine_from_jamiolkowski,
    affine_map,
    gram_action_on_affine,
    jamiolkowski_from_affine,
)
from .channels import (
    Channel,
    apply_channel,
    channel_from_jamiolkowski,
    channel_from_kraus,
    classical_action,
    coherence_generating_power,
    density_matrix,
    jamiolkowski,
    l1_coherence,
    random_channel,
)
from .errors import (
    DecompositionError,
    DephkitError,
    DimensionError,
    NotDephasingRealizationError,
    ValidationError,
)
from .linalg import (
    DEFAULT_TOL,
    kron,
    min_eig_hermitian,
    partial_trace,
    partial_transpose,
)
from .memory import (
    ProductDecomposition,
    ProductTerm,
    decompose_product_qubit,
    family_gram,
    family_ppt_closed_form,
    is_passive_compatible,
    l1_distance,
    memory_activity_qubit,
    nearest_passive_qubit,
    nmr_experimental_gram,
    ppt_min_eig,
)
from .superchannels import (
    BipartiteChannel,
    ControlledUnitaryFamily,
    RealizationReport,
    SimulationConsistencyReport,
    SuperGram,
    apply_super,
    bipartite_channel,
    circuit_oracle,
    controlled_unitary_channel,
    controlled_unitary_family,
    gram_from_controlled_unitaries,
    gram_from_simulation,
    random_controlled_family,
    random_super_gram,
    realize_super_gram,
    validate_super_gram,
    verify_dephasing_realization,
    verify_simulation_consistency,
)

__version__ = "0.1.0"
