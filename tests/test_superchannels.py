import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CMAX, audit_only_triple, permutation, random_psd
from dephkit import (
    DimensionError,
    NotDephasingRealizationError,
    ValidationError,
    apply_super,
    bipartite_channel,
    channel_from_kraus,
    circuit_oracle,
    classical_action,
    controlled_unitary_channel,
    controlled_unitary_family,
    family_gram,
    gram_from_controlled_unitaries,
    gram_from_simulation,
    jamiolkowski,
    random_channel,
    random_controlled_family,
    random_super_gram,
    realize_super_gram,
    validate_super_gram,
    verify_dephasing_realization,
    verify_simulation_consistency,
)
from dephkit.linalg import (
    DEFAULT_TOL,
    basis_matrix,
    basis_vector,
    kron,
    max_abs,
    measure,
    partial_trace,
    random_unitary,
)
from dephkit import superchannels
from dephkit.superchannels import simulation_tensor
from dephkit.memory import NMR_VALIDATION_TOL, nmr_experimental_gram
from reference import (
    identity_bipartite,
    identity_channel,
    identity_super_gram,
    is_psd,
    marginal_grams,
    maximally_dephasing_channel,
    random_density_matrix,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def pure_memory_state(dim, level=0):
    e = basis_vector(level, dim)
    return np.outer(e, e.conj())


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_all_ones_and_identity():
    for d in (2, 3):
        assert validate_super_gram(np.ones((d * d, d * d)), d).d == d
        assert validate_super_gram(np.eye(d * d), d).d == d


def test_validate_cmax(cmax):
    assert cmax.d == 2
    assert np.array_equal(cmax.mat, CMAX)


def test_validate_distinct_failures():
    bad_diag = np.eye(4, dtype=complex)
    bad_diag[0, 0] = 0.9
    with pytest.raises(ValidationError) as err:
        validate_super_gram(bad_diag, 2)
    assert err.value.check == "unit-diagonal"

    not_psd = np.ones((4, 4), dtype=complex)
    not_psd[0, 1] = not_psd[1, 0] = -1
    not_psd[2, 3] = not_psd[3, 2] = -1
    with pytest.raises(ValidationError) as err:
        validate_super_gram(not_psd, 2)
    assert err.value.check == "psd"

    unequal_blocks = np.eye(4, dtype=complex)
    unequal_blocks[2, 3] = unequal_blocks[3, 2] = 0.5
    with pytest.raises(ValidationError) as err:
        validate_super_gram(unequal_blocks, 2)
    assert err.value.check == "equal-diagonal-blocks"


def test_validate_rejects_d1():
    with pytest.raises(DimensionError):
        validate_super_gram(np.ones((1, 1)), 1)


def test_validated_values_are_immutable():
    source = np.ones((4, 4), dtype=complex)
    sg = validate_super_gram(source, 2)
    source[0, 1] = 0.0  # caller-side mutation must not leak in
    assert sg.mat[0, 1] == 1.0
    with pytest.raises((ValueError, RuntimeError)):
        sg.mat[0, 0] = 7.0


# ---------------------------------------------------------------------------
# apply_super
# ---------------------------------------------------------------------------


def test_apply_super_all_ones_is_identity_superchannel():
    ch = random_channel(2, 2, seed=0)
    out = apply_super(identity_super_gram(2), ch)
    assert max_abs(jamiolkowski(out) - jamiolkowski(ch)) < 1e-12


def test_apply_super_identity_gram_gives_max_dephasing():
    out = apply_super(validate_super_gram(np.eye(4), 2), identity_channel(2))
    target = maximally_dephasing_channel(2)
    assert max_abs(jamiolkowski(out) - jamiolkowski(target)) < 1e-12


@pytest.mark.parametrize("d,n", [(2, 40), (3, 10)])
def test_apply_super_preserves_classical_action(d, n):
    for seed in range(n):
        sg = random_super_gram(d, seed)
        ch = random_channel(d, 2, seed + 1000)
        out = apply_super(sg, ch)
        assert max_abs(classical_action(out) - classical_action(ch)) < 1e-9
        assert measure(out.kraus, ("trace-preserving",), 1e-9)[0].value < 1e-9
        assert is_psd(jamiolkowski(out), tol=1e-9)


def _dented_super_gram():
    # Block (0, 0) raised by 2e-7 off the diagonal: a valid Gram matrix at
    # tol 1e-6 whose output channel misses trace preservation by 3.2e-8
    # (6.4e-8 on sum K†K).
    mat = random_super_gram(2, 3).mat.copy()
    mat[0, 1] += 2e-7
    mat[1, 0] += 2e-7
    return validate_super_gram(mat, 2, tol=1e-6)


def test_apply_super_checks_tp_at_the_callers_tol():
    out = apply_super(_dented_super_gram(), random_channel(2, 2, 5), tol=1e-6)
    assert measure(out.kraus, ("trace-preserving",), 1e-6)[0].value < 1e-6


def test_apply_super_tp_defect_above_tol_is_named():
    with pytest.raises(ValidationError) as err:
        apply_super(_dented_super_gram(), random_channel(2, 2, 5), tol=1e-8)
    assert err.value.check == "jamiolkowski-tp"
    assert 1e-8 < err.value.value < 1e-6


def test_apply_super_dim_mismatch():
    with pytest.raises(DimensionError):
        apply_super(identity_super_gram(2), random_channel(3, 2, 0))


# ---------------------------------------------------------------------------
# controlled-unitary construction
# ---------------------------------------------------------------------------


def test_gram_all_identity_families_gives_all_ones():
    d = 2
    fam = controlled_unitary_family([np.eye(4, dtype=complex)] * d)
    sg = gram_from_controlled_unitaries(fam, fam)
    assert max_abs(sg.mat - np.ones((4, 4))) < 1e-12


def test_gram_diagonal_phase_families_match_direct_inner_products():
    d = 2
    rng = np.random.default_rng(12)
    pre = controlled_unitary_family([np.eye(4, dtype=complex)] * d)
    post = controlled_unitary_family(
        [np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4))) for _ in range(d)]
    )
    sg = gram_from_controlled_unitaries(pre, post)
    e0 = basis_vector(0, 4)
    vecs = {}
    for i in range(d):
        for k in range(d):
            vecs[(i, k)] = post.unitaries[i] @ (pre.unitaries[k] @ e0)
    for i in range(d):
        for k in range(d):
            for j in range(d):
                for l in range(d):
                    expected = np.vdot(vecs[(j, l)], vecs[(i, k)])
                    assert abs(sg.mat[i * d + k, j * d + l] - expected) < 1e-12
    assert max_abs(np.abs(sg.mat) - 1.0) < 1e-12  # unimodular entries


def test_cmax_realization_gram(cmax, cmax_families):
    pre, post = cmax_families
    sg = gram_from_controlled_unitaries(pre, post)
    assert max_abs(sg.mat - cmax.mat) < 1e-12


@pytest.mark.parametrize("d,seed", [(2, 0), (2, 5), (3, 1)])
def test_gram_block_structure_and_diagonal_block_formula(d, seed):
    pre = random_controlled_family(d, seed)
    post = random_controlled_family(d, seed + 99)
    sg = gram_from_controlled_unitaries(pre, post)
    e0 = basis_vector(0, d * d)
    # every diagonal block equals <0|U_l† U_k|0> regardless of the post family
    expected = np.empty((d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            expected[k, l] = np.vdot(pre.unitaries[l] @ e0, pre.unitaries[k] @ e0)
    for i in range(d):
        assert max_abs(sg.mat[i * d : (i + 1) * d, i * d : (i + 1) * d] - expected) < 1e-12


def test_controlled_family_rejects_non_unitary():
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 0.5
    with pytest.raises(ValidationError):
        controlled_unitary_family([np.eye(4, dtype=complex), bad])


# ---------------------------------------------------------------------------
# realization of any valid Gram matrix
# ---------------------------------------------------------------------------


def realized(kind, d, arg):
    """One valid matrix of each kind, its tol, and its realize_super_gram families."""
    if kind == "random":
        sg, tol = random_super_gram(d, arg), DEFAULT_TOL
    elif kind == "family":
        sg, tol = family_gram(*arg), DEFAULT_TOL
    elif kind == "nmr":
        sg, tol = nmr_experimental_gram(), NMR_VALIDATION_TOL
    else:
        block = np.ones((d, d)) if kind == "ones" else np.eye(d)
        sg, tol = validate_super_gram(np.kron(np.ones((d, d)), block), d), DEFAULT_TOL
    return sg, tol, realize_super_gram(sg, tol)


REALIZE_INPUTS = [
    pytest.param(*case, id="-".join(map(str, case)))
    for case in [("random", d, seed) for d in (2, 3, 4, 5) for seed in range(3)]
    + [("family", 3, ab) for ab in [(1, 1), (1, 0), (0.8, 0.5j), (0, 0)]]
    + [("nmr", 2, None)]
    + [(kind, d, None) for kind in ("ones", "ones-eye") for d in (2, 3, 4, 5)]
]


@pytest.mark.parametrize("kind,d,arg", REALIZE_INPUTS)
def test_realize_round_trips_with_exact_unitaries(kind, d, arg):
    sg, tol, (pre, post) = realized(kind, d, arg)
    assert max(measure(u, ("unitary",), tol)[0].value for f in (pre, post) for u in f.unitaries) <= 1e-14
    assert max_abs(gram_from_controlled_unitaries(pre, post, tol).mat - sg.mat) <= 1e-12


@pytest.mark.parametrize("kind,d,arg", REALIZE_INPUTS)
def test_realized_circuit_simulates_its_matrix(kind, d, arg):
    sg, tol, families = realized(kind, d, arg)
    enc, dec = map(controlled_unitary_channel, families)
    simulated = gram_from_simulation(enc, dec, pure_memory_state(d * d), tol)
    assert max_abs(simulated.mat - sg.mat) <= 1e-12


@pytest.mark.parametrize("kind,d,arg", [p for p in REALIZE_INPUTS if p.values[1] <= 3])
def test_realized_circuit_matches_apply_super(kind, d, arg):
    sg, tol, families = realized(kind, d, arg)
    enc, dec = map(controlled_unitary_channel, families)
    for seed in range(2):
        ch = random_channel(d, 2, seed)
        via_circuit = circuit_oracle(enc, dec, pure_memory_state(d * d), ch, tol)
        assert max_abs(jamiolkowski(apply_super(sg, ch, tol)) - jamiolkowski(via_circuit)) <= 1e-12


@pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("d,seed", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_realize_carries_a_diagonal_block_defect_over_unamplified(d, seed, delta):
    # The realized circuit has equal diagonal blocks, so it can only miss the
    # defect itself: it copies block (0, 0) into the last one.
    mat = random_super_gram(d, seed).mat.copy()
    a, b = (d - 1) * d, (d - 1) * d + 1
    mat[a, b] += delta
    mat[b, a] += delta
    # the random blocks are equal only to rounding, so the defect reads delta + O(eps)
    sg = validate_super_gram(mat, d, tol=2 * delta)
    pre, post = realize_super_gram(sg, 2 * delta)
    assert max_abs(gram_from_controlled_unitaries(pre, post, 2 * delta).mat - sg.mat) <= delta + 1e-14


# ---------------------------------------------------------------------------
# simulations: Gram extraction, audits, oracle
# ---------------------------------------------------------------------------


def test_gram_from_simulation_identity_realization():
    d, dm = 2, 3
    enc = identity_bipartite(d, dm)
    dec = identity_bipartite(d, dm)
    tau = random_density_matrix(dm, 7)
    sg = gram_from_simulation(enc, dec, tau)
    assert max_abs(sg.mat - np.ones((4, 4))) < 1e-12


@pytest.mark.parametrize("d,seed", [(2, 3), (3, 4), (4, 5), (5, 6)])
def test_gram_from_simulation_matches_controlled_unitaries(d, seed):
    pre = random_controlled_family(d, seed)
    post = random_controlled_family(d, seed + 31)
    enc = controlled_unitary_channel(pre)
    dec = controlled_unitary_channel(post)
    sg_sim = gram_from_simulation(enc, dec, pure_memory_state(d * d))
    sg_dir = gram_from_controlled_unitaries(pre, post)
    assert max_abs(sg_sim.mat - sg_dir.mat) < 1e-9


@pytest.mark.parametrize("d,seed", [(2, 0), (2, 8), (3, 2)])
def test_oracle_equivalence(d, seed):
    pre = random_controlled_family(d, seed)
    post = random_controlled_family(d, seed + 50)
    enc = controlled_unitary_channel(pre)
    dec = controlled_unitary_channel(post)
    tau = pure_memory_state(d * d)
    sg = gram_from_simulation(enc, dec, tau)
    for chseed in range(3):
        ch = random_channel(d, 2, chseed)
        via_gram = apply_super(sg, ch)
        via_circuit = circuit_oracle(enc, dec, tau, ch)
        assert max_abs(jamiolkowski(via_gram) - jamiolkowski(via_circuit)) < 1e-9


def test_oracle_dim_mismatch():
    enc = identity_bipartite(2, 2)
    with pytest.raises(DimensionError):
        circuit_oracle(enc, enc, np.eye(2) / 2, random_channel(3, 2, 0))


def test_oracle_identity_cases():
    d, dm = 2, 2
    ch = random_channel(d, 3, seed=21)
    out = circuit_oracle(identity_bipartite(d, dm), identity_bipartite(d, dm),
                         random_density_matrix(dm, 3), ch)
    assert max_abs(jamiolkowski(out) - jamiolkowski(ch)) < 1e-12

    fam = controlled_unitary_family([np.eye(d * d, dtype=complex)] * d)
    enc = dec = controlled_unitary_channel(fam)
    out = circuit_oracle(enc, dec, pure_memory_state(d * d), ch)
    assert max_abs(jamiolkowski(out) - jamiolkowski(ch)) < 1e-12


def test_oracle_builds_its_output_at_the_callers_tol():
    # sum K†K of the input channel is 1 + 5e-7: valid at tol 1e-6, and so is the circuit around it
    ident = identity_bipartite(2, 2)
    ch = channel_from_kraus([np.sqrt(1 + 5e-7) * np.eye(2)], tol=1e-6)
    out = circuit_oracle(ident, ident, np.diag([1.0, 0.0]), ch, tol=1e-6)
    assert max_abs(jamiolkowski(out) - jamiolkowski(ch)) < 1e-12
    with pytest.raises(ValidationError) as err:
        circuit_oracle(ident, ident, np.diag([1.0, 0.0]), ch, tol=1e-7)
    assert err.value.check == "trace-preserving"


def test_controlled_unitary_channel_is_built_at_the_callers_tol():
    fam = controlled_unitary_family([np.sqrt(1 + 5e-7) * np.eye(4), np.eye(4)], tol=1e-6)
    bc = controlled_unitary_channel(fam, tol=1e-6)
    assert measure(bc.inner.kraus, ("trace-preserving",), 1e-6)[0].value == pytest.approx(5e-7, rel=1e-6)
    with pytest.raises(ValidationError) as err:
        controlled_unitary_channel(fam)
    assert err.value.check == "trace-preserving"


def test_oracle_with_mixed_memory_state():
    # A mixed diagonal memory state: gram_from_simulation must agree with the circuit.
    d = 2
    rng = np.random.default_rng(40)
    pre = random_controlled_family(d, 13)
    post = random_controlled_family(d, 14)
    enc = controlled_unitary_channel(pre)
    dec = controlled_unitary_channel(post)
    probs = rng.dirichlet(np.ones(d * d))
    tau = np.diag(probs).astype(complex)
    sg = gram_from_simulation(enc, dec, tau)
    # the Gram entries read from the superoperators must match those read off the full tensor
    audit = verify_simulation_consistency(enc, dec, tau)
    assert max_abs(audit.gram_entries - sg.mat) < 1e-12
    for chseed in range(3):
        ch = random_channel(d, 2, chseed + 60)
        assert max_abs(
            jamiolkowski(apply_super(sg, ch)) - jamiolkowski(circuit_oracle(enc, dec, tau, ch))
        ) < 1e-9


def test_simulation_consistency_reports():
    d = 2
    pre = random_controlled_family(d, 23)
    post = random_controlled_family(d, 24)
    enc = controlled_unitary_channel(pre)
    dec = controlled_unitary_channel(post)
    tau = pure_memory_state(d * d)
    audit = verify_simulation_consistency(enc, dec, tau)
    assert audit.max_mismatch <= 1e-10
    assert audit.passed

    ident = identity_bipartite(d, 2)
    audit = verify_simulation_consistency(ident, ident, random_density_matrix(2, 5))
    assert audit.max_mismatch <= 1e-12
    assert max_abs(audit.gram_entries - np.ones((4, 4))) < 1e-12

    hadamard_enc = bipartite_channel([kron(HADAMARD, np.eye(4))], (2, 4, 2, 4))
    audit = verify_simulation_consistency(hadamard_enc, dec, tau)
    assert audit.max_mismatch > 1e-3


def test_verify_cmax_realization(cmax, cmax_families):
    pre, post = cmax_families
    enc = controlled_unitary_channel(pre)
    dec = controlled_unitary_channel(post)
    report = verify_dephasing_realization(enc, dec, pure_memory_state(4))
    assert report.passed
    assert max_abs(report.gram_entries - cmax.mat) < 1e-12


def test_verify_identity_realization():
    enc = dec = identity_bipartite(2, 3)
    report = verify_dephasing_realization(enc, dec, random_density_matrix(3, 11))
    assert report.passed
    assert max_abs(report.gram_entries - np.ones((4, 4))) < 1e-12  # and so are both marginals


def test_verify_swap_encoder_fails_encoder_condition():
    d = 2
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1
    enc = bipartite_channel([swap], (d, d, d, d))
    dec = identity_bipartite(d, d)
    tau = random_density_matrix(d, 17)
    report = verify_dephasing_realization(enc, dec, tau)
    assert not report.passed
    assert any(c.name == "encoder-dephasing" for c in report.failed_checks())


def test_gram_from_simulation_refuses_non_dephasing():
    d = 2
    hadamard_enc = bipartite_channel([kron(HADAMARD, np.eye(4))], (2, 4, 2, 4))
    dec = controlled_unitary_channel(random_controlled_family(d, 3))
    with pytest.raises(NotDephasingRealizationError) as err:
        gram_from_simulation(hadamard_enc, dec, pure_memory_state(4))
    assert "encoder-dephasing" in str(err.value)
    assert err.value.report is not None


def test_wrong_memory_wiring_fails_decoder_condition_at_specific_level():
    # Encoder stores |m> in the memory; the decoder flips the system exactly
    # when the memory reads level 1, so only the m=1 branch breaks.
    d = 2
    u0 = np.eye(4, dtype=complex)
    u1 = permutation(4, 0, 1)
    enc = controlled_unitary_channel(controlled_unitary_family([u0, u1]))
    flip = np.zeros((8, 8), dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    for theta in range(4):
        e = np.zeros((4, 4))
        e[theta, theta] = 1
        w = sx if theta == 1 else np.eye(2)
        flip += kron(w, e)
    dec = bipartite_channel([flip], (2, 4, 2, 4))
    tau = pure_memory_state(4)
    report = verify_dephasing_realization(enc, dec, tau)
    assert not report.passed
    failed = {c.name for c in report.failed_checks()}
    assert "decoder-dephasing" in failed
    assert "encoder-dephasing" not in failed
    decoder_check = next(c for c in report.checks if c.name == "decoder-dephasing")
    assert "m=1" in decoder_check.detail


@pytest.mark.parametrize("d,seed", [(2, 0), (3, 1), (4, 0)])
def test_decoder_witness_is_the_lowest_of_tied_levels(d, seed):
    # The Fourier decoder ignores the memory, so every level's violation is
    # the same in exact arithmetic; rounding alone orders them.
    report = verify_dephasing_realization(*realization_triple("coherence-consuming-decoder", d, seed))
    decoder_check = next(c for c in report.checks if c.name == "decoder-dephasing")
    assert not decoder_check.passed
    assert decoder_check.detail == "worst conditional memory index m=0"


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def test_marginal_grams_all_ones():
    c_en, c_de = marginal_grams(identity_super_gram(2))
    assert max_abs(c_en - np.ones((2, 2))) < 1e-12
    for cm in c_de:
        assert max_abs(cm - np.ones((2, 2))) < 1e-12


def test_marginal_grams_cmax(cmax):
    c_en, c_de = marginal_grams(cmax)
    assert max_abs(c_en - np.eye(2)) < 1e-12
    assert max_abs(c_de[0] - np.ones((2, 2))) < 1e-12
    assert max_abs(c_de[1] - np.eye(2)) < 1e-12


def test_marginal_grams_nmr_values():
    _, c_de = marginal_grams(nmr_experimental_gram())
    assert abs(c_de[0][0, 1] - (0.003 + 0.465j)) < 1e-12
    assert abs(c_de[1][0, 1] - (-0.129 + 0.182j)) < 1e-12


def test_marginals_match_realization_report():
    d = 3
    pre = random_controlled_family(d, 77)
    post = random_controlled_family(d, 78)
    sg = gram_from_controlled_unitaries(pre, post)
    report = verify_dephasing_realization(
        controlled_unitary_channel(pre), controlled_unitary_channel(post), pure_memory_state(d * d)
    )
    assert next(c for c in report.checks if c.name == "marginal-consistency").value < 1e-9
    c_en, c_de = marginal_grams(sg)
    got_en, got_de = marginal_grams(validate_super_gram(report.gram_entries, d))
    assert max_abs(got_en - c_en) < 1e-9
    for m in range(d):
        assert max_abs(got_de[m] - c_de[m]) < 1e-9


# ---------------------------------------------------------------------------
# realization engine vs the per-basis reference
# ---------------------------------------------------------------------------


def fourier(d):
    w = np.exp(2j * np.pi / d)
    return np.array([[w ** (i * j) for j in range(d)] for i in range(d)]) / np.sqrt(d)


def shift(d):
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def random_bipartite(dims, rank, rng):
    """Random channel with the given (sys_in, mem_in, sys_out, mem_out): no dephasing structure."""
    sys_in, mem_in, sys_out, mem_out = dims
    rows, cols = sys_out * mem_out, sys_in * mem_in
    g = rng.standard_normal((rank * rows, cols)) + 1j * rng.standard_normal((rank * rows, cols))
    iso, _ = np.linalg.qr(g)
    return bipartite_channel([iso[r * rows : (r + 1) * rows] for r in range(rank)], dims)


def realization_triple(kind, d, seed=0):
    """(enc, dec, tau) of one kind: genuine ones realize a superchannel, the rest break it."""
    rng = np.random.default_rng([seed, d])
    mem = d * d
    dims = (d, mem, d, mem)

    def controlled(rank=1):
        weights = rng.dirichlet(np.ones(rank))
        kraus = [
            np.sqrt(w) * controlled_unitary_channel(
                random_controlled_family(d, int(rng.integers(2**31)))
            ).inner.kraus[0]
            for w in weights
        ]
        return bipartite_channel(kraus, dims)

    if kind in TINY_LEAK_KINDS:
        # One unmatched Kraus entry of 1e-200, at row (sys 1, mem 0) and column
        # (sys 0, mem 0) on one side of a controlled triple: that side is no
        # longer system-controlled, so the engine takes its dense path.
        enc, dec, tau = realization_triple("diag", d, seed)
        leaky = enc if kind.startswith("encoder") else dec
        kraus = leaky.inner.kraus[0].copy()
        kraus[leaky.mem_out, 0] = 1e-200
        leaky = bipartite_channel([kraus], dims)
        return (leaky, dec, tau) if kind.startswith("encoder") else (enc, leaky, tau)
    if kind in ("diag", "diag-kraus-rank-2"):
        rank = 2 if kind == "diag-kraus-rank-2" else 1
        return controlled(rank), controlled(rank), np.diag(rng.dirichlet(np.ones(mem))).astype(complex)
    if kind in ("coherent", "kraus-rank-2"):
        rank = 2 if kind == "kraus-rank-2" else 1
        v = rng.standard_normal(mem) + 1j * rng.standard_normal(mem)
        v /= np.linalg.norm(v)
        return controlled(rank), controlled(rank), np.outer(v, v.conj())
    if kind == "identity":
        ident = identity_bipartite(d, 3)
        return ident, ident, random_density_matrix(3, seed)
    if kind == "unequal-memories":
        enc = random_bipartite((d, 2, d, 3), 2, rng)
        dec = random_bipartite((d, 3, d, 2), 2, rng)
        return enc, dec, random_density_matrix(2, seed)
    if kind == "rank-2-memory-state":
        # Two Kraus operators on each side and a rank-2 tau on three levels:
        # the folded index (Kraus operator, factor column) has 2 x 2 entries.
        enc = random_bipartite((d, 3, d, 2), 2, rng)
        dec = random_bipartite((d, 2, d, 4), 2, rng)
        tau = random_psd(3, rng, rank=2)
        return enc, dec, tau / np.trace(tau)
    fourier_channel = bipartite_channel([kron(fourier(d), np.eye(mem))], dims)
    tau = pure_memory_state(mem)
    if kind == "non-mio-encoder":
        return fourier_channel, controlled(), tau
    if kind == "coherence-consuming-decoder":
        return controlled(), fourier_channel, tau
    if kind == "wrong-memory-wiring":
        # The encoder stores level m in memory level m; the decoder shifts the
        # system exactly when the memory reads level 1.
        store = controlled_unitary_family(
            [np.eye(mem, dtype=complex)] + [permutation(mem, 0, m) for m in range(1, d)]
        )
        flip = sum(
            kron(shift(d) if level == 1 else np.eye(d), basis_matrix(level, level, mem))
            for level in range(mem)
        )
        return controlled_unitary_channel(store), bipartite_channel([flip], dims), tau
    if kind == "fourier-on-an-empty-level":
        # Genuine but not system-controlled: the encoder stores level m in
        # memory level m, and the decoder applies a Fourier gate to the system
        # only when the memory reads its last level, which the encoder never fills.
        store = controlled_unitary_family(
            [np.eye(mem, dtype=complex)] + [permutation(mem, 0, m) for m in range(1, d)]
        )
        gate = sum(
            kron(fourier(d) if level == mem - 1 else np.eye(d), basis_matrix(level, level, mem))
            for level in range(mem)
        )
        return controlled_unitary_channel(store), bipartite_channel([gate], dims), tau
    raise ValueError(kind)


CONTROLLED_KINDS = ("diag", "diag-kraus-rank-2", "coherent", "kraus-rank-2")
TINY_LEAK_KINDS = ("encoder-leaks-1e-200", "decoder-leaks-1e-200")
GENUINE_KINDS = CONTROLLED_KINDS + ("identity", "fourier-on-an-empty-level") + TINY_LEAK_KINDS
BROKEN_KINDS = (
    "unequal-memories", "rank-2-memory-state", "non-mio-encoder", "coherence-consuming-decoder", "wrong-memory-wiring"
)
ENGINE_KINDS = GENUINE_KINDS + BROKEN_KINDS


def apply_bipartite(bc, x):
    """Image of an operator on system ⊗ memory under a bipartite channel, Kraus by Kraus."""
    return sum(k @ x @ k.conj().T for k in bc.inner.kraus)


def reference_tensor(enc, dec, tau):
    """The simulation tensor R[i,j,p,q,k,l,m,n] by the defining einsum formula."""
    dec_part = sum(np.einsum("itpg,jtqh->ijpgqh", b, b.conj()) for b in dec.kraus_tensors())
    enc_part = sum(
        np.einsum("kgma,ab,lhnb->kglhmn", a, tau, a.conj()) for a in enc.kraus_tensors()
    )
    return np.einsum("ijpgqh,kglhmn->ijpqklmn", dec_part, enc_part)


def reference_evaluation(enc, dec, tau, tol=1e-9):
    """Every realization quantity evaluated basis operator by basis operator."""
    d, mem = enc.sys_in, enc.mem_out
    c_en = np.empty((d, d), dtype=complex)
    enc_violation = 0.0
    for m in range(d):
        for n in range(d):
            image = apply_bipartite(enc, kron(basis_matrix(m, n, d), tau))
            reduced = partial_trace(image, (d, mem), "second").copy()
            c_en[m, n] = reduced[m, n]
            reduced[m, n] = 0.0
            enc_violation = max(enc_violation, max_abs(reduced))
    sigma = [
        partial_trace(apply_bipartite(enc, kron(basis_matrix(m, m, d), tau)), (d, mem), "first")
        for m in range(d)
    ]
    c_de = []
    dec_violation = 0.0
    for sigma_m in sigma:
        cm = np.empty((d, d), dtype=complex)
        for p in range(d):
            for q in range(d):
                image = apply_bipartite(dec, kron(basis_matrix(p, q, d), sigma_m))
                reduced = partial_trace(image, (d, dec.mem_out), "second").copy()
                cm[p, q] = reduced[p, q]
                reduced[p, q] = 0.0
                dec_violation = max(dec_violation, max_abs(reduced))
        c_de.append(cm)

    rhs = reference_tensor(enc, dec, tau)
    gram = np.empty((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    gram[i * d + k, j * d + l] = rhs[i, j, i, j, k, l, k, l]
    ii, jj, pp, qq, kk, ll, mm, nn = np.ix_(*[np.arange(d)] * 8)
    matched = (pp == ii) & (qq == jj) & (mm == kk) & (nn == ll)
    max_mismatch = max_abs(rhs[~np.broadcast_to(matched, rhs.shape)])

    marg_violation = max(
        [max_abs(gram[:d, :d] - c_en)] + [max_abs(gram[m::d, m::d] - c_de[m]) for m in range(d)]
    )
    gram_violation = max(c.value for c in measure(gram, superchannels.SUPER_GRAM_CHECKS, tol))
    values = {
        "encoder-dephasing": enc_violation,
        "decoder-dephasing": dec_violation,
        "marginal-consistency": marg_violation,
        "gram-structure": gram_violation,
    }
    if all(value <= tol for value in values.values()):
        values["simulation-mismatch"] = max_mismatch
    return {
        "checks": [(name, value <= tol, value) for name, value in values.items()],
        "gram": gram,
        "max_mismatch": max_mismatch,
        "tensor": rhs,
    }


@pytest.mark.parametrize("kind", ENGINE_KINDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_engine_matches_per_basis_reference(kind, d):
    enc, dec, tau = realization_triple(kind, d)
    ref = reference_evaluation(enc, dec, tau)
    report = verify_dephasing_realization(enc, dec, tau)
    assert [(c.name, c.passed) for c in report.checks] == [(n, p) for n, p, _ in ref["checks"]]
    for check, (_, _, value) in zip(report.checks, ref["checks"]):
        assert abs(check.value - value) <= 1e-12, check.name
    assert max_abs(report.gram_entries - ref["gram"]) <= 1e-12

    audit = verify_simulation_consistency(enc, dec, tau)
    assert abs(audit.max_mismatch - ref["max_mismatch"]) <= 1e-12
    assert max_abs(audit.gram_entries - ref["gram"]) <= 1e-12
    tensor = simulation_tensor(enc, dec, tau)
    assert tensor.shape == (d,) * 8
    assert max_abs(tensor - ref["tensor"]) <= 1e-12

    genuine = kind in GENUINE_KINDS
    assert report.passed == genuine
    if genuine:
        assert max_abs(gram_from_simulation(enc, dec, tau).mat - ref["gram"]) <= 1e-12


def test_gram_structure_uses_callers_tol():
    # Every realization check passes at tol 1e-9 (encoder and decoder at
    # 4.5e-10, marginals at 9e-10), but the extracted unit diagonal is off by
    # 1.8e-9: the Gram check must hold the triple to the same tol.
    d, p = 3, 0.9e-9
    kraus = [np.sqrt(1 - p) * np.eye(d)] + [
        np.sqrt(p / 2) * np.linalg.matrix_power(shift(d), s) for s in (1, 2)
    ]
    noisy = bipartite_channel(kraus, (d, 1, d, 1))
    tau = np.ones((1, 1), dtype=complex)
    with pytest.raises(NotDephasingRealizationError) as err:
        gram_from_simulation(noisy, noisy, tau, tol=1e-9)
    failed = {c.name: c.value for c in err.value.report.failed_checks()}
    assert set(failed) == {"gram-structure"}
    assert failed["gram-structure"] == pytest.approx(1.8e-9, rel=1e-6)
    assert max_abs(np.diag(gram_from_simulation(noisy, noisy, tau, tol=1e-8).mat) - 1) > 1e-9


def test_gram_structure_reports_the_largest_measured_deviation():
    # A passing extracted matrix is measured at rounding level, not read as 0.0.
    enc, dec, tau = realization_triple("coherent", 3)
    report = verify_dephasing_realization(enc, dec, tau)
    check = next(c for c in report.checks if c.name == "gram-structure")
    assert check.value > 0.0
    worst = max(report.gram_checks, key=lambda c: c.value)
    assert check.value == worst.value
    assert worst.name in check.detail
    assert report.passed
    sg = gram_from_simulation(enc, dec, tau)
    assert sg.checks == report.gram_checks
    expected = [(name, DEFAULT_TOL) for name in superchannels.SUPER_GRAM_CHECKS]
    assert [(c.name, c.threshold) for c in sg.checks] == expected


def test_reject_holds_no_large_arrays():
    # A caller that keeps the exception keeps every frame of its traceback
    # alive; those frames must not hold the d^4 x M^2 superoperators.
    enc, dec, tau = realization_triple("non-mio-encoder", 4)
    with pytest.raises(NotDephasingRealizationError) as err:
        gram_from_simulation(enc, dec, tau)
    held = {}
    tb = err.value.__traceback__
    while tb is not None:
        for value in tb.tb_frame.f_locals.values():
            if isinstance(value, np.ndarray):
                held[id(value)] = value.nbytes
        tb = tb.tb_next
    assert sum(held.values()) <= 64 * 1024


def test_audit_only_reject_is_one_verdict():
    # The four realization checks read 4.5e-10 and pass at tol 1e-9; only the
    # simulation tensor shows the decoder's first-order defect, at 2.1e-5.
    enc, dec, tau = audit_only_triple(3e-5)
    report = verify_dephasing_realization(enc, dec, tau, tol=1e-9)
    assert not report.passed
    (failed,) = report.failed_checks()
    assert failed.name == "simulation-mismatch"
    assert failed.value == verify_simulation_consistency(enc, dec, tau).max_mismatch
    assert failed.value == pytest.approx(3e-5 / np.sqrt(2), rel=1e-6)
    with pytest.raises(NotDephasingRealizationError, match="simulation-mismatch") as err:
        gram_from_simulation(enc, dec, tau, tol=1e-9)
    assert err.value.report.checks == report.checks


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_checks_grow_as_eps_squared_and_the_mismatch_as_eps(eps):
    enc, dec, tau = audit_only_triple(eps)
    *checks, mismatch = verify_dephasing_realization(enc, dec, tau, tol=np.inf).checks
    assert max(c.value for c in checks) == pytest.approx(eps**2 / 2, rel=1e-3)
    assert mismatch.name == "simulation-mismatch"
    assert mismatch.value == pytest.approx(eps / np.sqrt(2), rel=1e-3)
    v = max(checks[0].value, checks[1].value)
    assert mismatch.value == pytest.approx(np.sqrt(v), rel=1e-9)  # the bound is tight


@pytest.mark.parametrize("kind", BROKEN_KINDS)
@pytest.mark.parametrize("d", [2, 3])
def test_reject_never_builds_the_simulation_tensor(kind, d, monkeypatch):
    def refuse(*_):
        raise AssertionError("simulation tensor built for a triple that failed a realization check")

    monkeypatch.setattr(superchannels, "_tensor", refuse)
    enc, dec, tau = realization_triple(kind, d)
    report = verify_dephasing_realization(enc, dec, tau)
    assert len(report.checks) == 4 and not report.passed
    with pytest.raises(NotDephasingRealizationError):
        gram_from_simulation(enc, dec, tau)


@pytest.mark.parametrize(
    "d,kind",
    [(d, kind) for kind in CONTROLLED_KINDS + ("identity",) for d in (2, 3, 4)]
    + [(2, "fourier-on-an-empty-level"), (3, "fourier-on-an-empty-level")],
)
def test_controlled_accept_builds_no_superoperator(d, kind, monkeypatch):
    # The encoder-dephasing and decoder-dephasing values read exactly 0.0, so
    # the mismatch bound sqrt((1 + tol) v) is 0.0 without D, E or the
    # simulation tensor: every system-controlled triple, and the Fourier one.
    def refuse(*_):
        raise AssertionError("superoperator built for a triple with zero leakage")

    monkeypatch.setattr(superchannels, "_superoperators", refuse)
    monkeypatch.setattr(superchannels, "_tensor", refuse)
    enc, dec, tau = realization_triple(kind, d)
    report = verify_dephasing_realization(enc, dec, tau)
    assert report.passed
    assert report.checks[0].value == report.checks[1].value == 0.0
    assert report.checks[-1].name == "simulation-mismatch"
    assert report.checks[-1].value == 0.0
    gram_from_simulation(enc, dec, tau)


@pytest.mark.parametrize("d,kind", [(d, kind) for kind in CONTROLLED_KINDS + ("identity",) for d in (2, 3, 4)])
def test_controlled_triple_multiplies_no_unmatched_row(d, kind, monkeypatch):
    # The rows of x at k != m and of b at i != p are exactly zero, so the
    # leakage products over every row would add nothing but exact zeros.
    def refuse(*_):
        raise AssertionError("unmatched rows multiplied for a system-controlled triple")

    monkeypatch.setattr(superchannels, "_encoder_leakage", refuse)
    monkeypatch.setattr(superchannels, "_decoder_leakage", refuse)
    report = verify_dephasing_realization(*realization_triple(kind, d))
    assert report.passed
    assert report.checks[0].value == report.checks[1].value == 0.0


@pytest.mark.parametrize("kind", TINY_LEAK_KINDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_one_unmatched_entry_takes_the_dense_path(kind, d, monkeypatch):
    # The zero test is exact, not a tolerance: 1e-200 is enough to multiply
    # every row of its side, and only of its side.
    called = []
    for name in ("_encoder_leakage", "_decoder_leakage"):
        def spy(*args, name=name, helper=getattr(superchannels, name)):
            called.append(name)
            return helper(*args)

        monkeypatch.setattr(superchannels, name, spy)
    report = verify_dephasing_realization(*realization_triple(kind, d))
    side = 0 if kind.startswith("encoder") else 1
    assert called == [("_encoder_leakage", "_decoder_leakage")[side]]
    assert report.checks[side].value > 0.0
    assert report.checks[1 - side].value == 0.0
    assert report.passed


def leaky_controlled(d, leaks, rng):
    """A controlled-unitary channel that also sends input m to output k != m for each (k, m) in leaks.

    Each input m keeps weight p_m of a Dirichlet draw on its own level and
    moves the rest to its leak targets, each with its own memory unitary, so
    the unmatched slab (k, m) of the Kraus tensors is nonzero exactly when
    (k, m) is in leaks, and the channel is trace preserving.
    """
    mem = d * d
    kept = np.zeros((d * mem, d * mem), dtype=complex)
    moved = []
    for m in range(d):
        targets = [k for k in range(d) if (k, m) in leaks]
        weights = rng.dirichlet(np.ones(1 + len(targets)))
        kept += np.sqrt(weights[0]) * kron(basis_matrix(m, m, d), random_unitary(mem, rng))
        moved += [np.sqrt(w) * kron(basis_matrix(k, m, d), random_unitary(mem, rng)) for k, w in zip(targets, weights[1:])]
    return bipartite_channel([kept] + moved, (d, mem, d, mem))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.integers(0, 63), st.integers(0, 63), st.booleans())
def test_engine_matches_reference_with_unmatched_slabs_switched(seed, d, enc_bits, dec_bits, pure):
    # Either path on either side, against the per-basis reference.
    rng = np.random.default_rng(seed)
    pairs = [(k, m) for k in range(d) for m in range(d) if k != m]
    enc_leaks = {pair for j, pair in enumerate(pairs) if enc_bits >> j & 1}
    dec_leaks = {pair for j, pair in enumerate(pairs) if dec_bits >> j & 1}
    enc, dec = leaky_controlled(d, enc_leaks, rng), leaky_controlled(d, dec_leaks, rng)
    if pure:
        v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        tau = np.outer(v, v.conj()) / np.vdot(v, v).real
    else:
        tau = random_density_matrix(d * d, seed)
    ref = reference_evaluation(enc, dec, tau)
    report = verify_dephasing_realization(enc, dec, tau)
    assert [(c.name, c.passed) for c in report.checks] == [(n, p) for n, p, _ in ref["checks"]]
    for check, (_, _, value) in zip(report.checks, ref["checks"]):
        assert abs(check.value - value) <= 1e-12, check.name
    assert max_abs(report.gram_entries - ref["gram"]) <= 1e-12
    assert (report.checks[0].value == 0.0) == (not enc_leaks)
    assert (report.checks[1].value == 0.0) == (not dec_leaks)


def memory_rotated_fourier(d, seed=0):
    """The Fourier triple with its middle memory conjugated by a Haar-random unitary.

    It realizes the same superchannel, but its leakage is zero only up to
    rounding: v reads about 5e-18, so the engine must build the tensor.
    """
    enc, dec, tau = realization_triple("fourier-on-an-empty-level", d)
    u = kron(np.eye(d), random_unitary(enc.mem_out, np.random.default_rng(seed)))
    dims = (d, enc.mem_out, d, enc.mem_out)
    return (
        bipartite_channel([u @ k for k in enc.inner.kraus], dims),
        bipartite_channel([k @ u.conj().T for k in dec.inner.kraus], dims),
        tau,
    )


@pytest.mark.parametrize(
    "make,passed",
    [
        (lambda: memory_rotated_fourier(2), True),
        (lambda: memory_rotated_fourier(3), True),
        (lambda: audit_only_triple(3e-5), False),
    ],
    ids=["rotated-fourier-d2", "rotated-fourier-d3", "audit-only"],
)
def test_triple_that_is_not_system_controlled_builds_the_tensor(make, passed, monkeypatch):
    # Kraus tensors that do not vanish off the matched indices leave v above
    # 0.0, if only at rounding level, so the engine builds R and reports it.
    built, tensor = [], superchannels._tensor

    def spy(*operators):
        built.append(True)
        return tensor(*operators)

    monkeypatch.setattr(superchannels, "_tensor", spy)
    enc, dec, tau = make()
    report = verify_dephasing_realization(enc, dec, tau)
    assert built == [True]
    assert max(report.checks[0].value, report.checks[1].value) > 0.0
    assert report.passed == passed
    mismatch = report.checks[-1]
    assert mismatch.name == "simulation-mismatch"
    assert mismatch.value == verify_simulation_consistency(enc, dec, tau).max_mismatch


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3]),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    st.integers(1, 2),
    st.integers(1, 3),
)
def test_mismatch_obeys_the_leakage_bound(seed, d, mems, rank, tau_rank):
    # mismatch <= sqrt((1 + tol) v), v the larger encoder/decoder leakage;
    # 1e-9 is the trace-preservation tol the channels are built to.
    rng = np.random.default_rng(seed)
    mem_in, mem, mem_out = mems
    # enough Kraus operators for an isometry when the memory shrinks
    enc = random_bipartite((d, mem_in, d, mem), max(rank, -(-mem_in // mem)), rng)
    dec = random_bipartite((d, mem, d, mem_out), max(rank, -(-mem // mem_out)), rng)
    tau = random_psd(mem_in, rng, rank=min(tau_rank, mem_in))
    tau /= np.trace(tau)
    enc_check, dec_check, *_, mismatch = verify_dephasing_realization(enc, dec, tau, tol=np.inf).checks
    assert mismatch.name == "simulation-mismatch"
    v = max(enc_check.value, dec_check.value)
    assert mismatch.value <= np.sqrt((1 + 1e-9) * v)


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_realization_refuses_a_nan_or_negative_tol(tol):
    enc, dec, tau = realization_triple("diag", 2)
    with pytest.raises(ValueError, match="tolerance"):
        verify_dephasing_realization(enc, dec, tau, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        gram_from_simulation(enc, dec, tau, tol=tol)


# A memory state that is not a state: each of the three checks, on the triple
# that once passed every realization check at 0.0 with tau = diag(2, -1).
NON_STATES = {
    "hermitian": np.array([[0.5, 0.1], [-0.1, 0.5]]),
    "unit-trace": 0.6 * np.eye(2),
    "psd": np.diag([2.0, -1.0]),
}
ENTRY_POINTS = {
    "verify_dephasing_realization": lambda enc, dec, tau, tol: verify_dephasing_realization(enc, dec, tau, tol),
    "gram_from_simulation": lambda enc, dec, tau, tol: gram_from_simulation(enc, dec, tau, tol),
    "verify_simulation_consistency": lambda enc, dec, tau, tol: verify_simulation_consistency(enc, dec, tau, tol),
    "simulation_tensor": lambda enc, dec, tau, tol: simulation_tensor(enc, dec, tau, tol),
    "circuit_oracle": lambda enc, dec, tau, tol: circuit_oracle(enc, dec, tau, identity_channel(2), tol),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("check", NON_STATES)
def test_realization_refuses_a_memory_state_that_is_not_a_state(entry, check):
    ident = identity_bipartite(2, 2)
    with pytest.raises(ValidationError, match="^memory state: ") as err:
        ENTRY_POINTS[entry](ident, ident, NON_STATES[check], 1e-9)
    assert err.value.check == check


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_realization_accepts_a_memory_state_within_tol(entry):
    # lambda_min = -tol / 2 passes the psd check at tol 1e-9 and fails it at tol / 4
    tol = 1e-9
    ident = identity_bipartite(2, 2)
    tau = np.diag([1 + tol / 2, -tol / 2])
    ENTRY_POINTS[entry](ident, ident, tau, tol)
    with pytest.raises(ValidationError, match="^memory state: ") as err:
        ENTRY_POINTS[entry](ident, ident, tau, tol / 4)
    assert err.value.check == "psd"
