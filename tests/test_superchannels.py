import numpy as np
import pytest

from conftest import CMAX, audit_only_triple, permutation
from dephkit import (
    DimensionError,
    NotDephasingRealizationError,
    ValidationError,
    apply_super,
    bipartite_channel,
    circuit_oracle,
    classical_action,
    controlled_unitary_channel,
    controlled_unitary_family,
    gram_from_controlled_unitaries,
    gram_from_simulation,
    identity_bipartite,
    identity_channel,
    identity_super_gram,
    jamiolkowski,
    marginal_grams,
    maximally_dephasing_channel,
    random_channel,
    random_controlled_family,
    random_density_matrix,
    random_super_gram,
    validate_super_gram,
    verify_dephasing_realization,
    verify_simulation_consistency,
)
from dephkit.linalg import basis_matrix, basis_vector, is_psd, kron, max_abs, partial_trace
from dephkit import superchannels
from dephkit.superchannels import simulation_tensor
from dephkit.memory import nmr_experimental_gram

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
        assert max_abs(out.kraus_sum() - np.eye(d)) < 1e-9
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
    assert max_abs(out.kraus_sum() - np.eye(2)) < 1e-6


def test_apply_super_tp_defect_above_tol_is_named():
    with pytest.raises(ValidationError) as err:
        apply_super(_dented_super_gram(), random_channel(2, 2, 5), tol=1e-8)
    assert err.value.check == "superchannel-output-tp"
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
        assert max_abs(sg.block(i, i) - expected) < 1e-12


def test_controlled_family_rejects_non_unitary():
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 0.5
    with pytest.raises(ValidationError):
        controlled_unitary_family([np.eye(4, dtype=complex), bad])


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
    assert max_abs(report.c_en - np.eye(2)) < 1e-12  # C_en reads off the diagonal block of CMAX
    assert max_abs(report.gram_entries - cmax.mat) < 1e-12


def test_verify_identity_realization():
    enc = dec = identity_bipartite(2, 3)
    report = verify_dephasing_realization(enc, dec, random_density_matrix(3, 11))
    assert report.passed
    assert max_abs(report.c_en - np.ones((2, 2))) < 1e-12
    for cm in report.c_de:
        assert max_abs(cm - np.ones((2, 2))) < 1e-12


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


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def test_marginal_grams_all_ones():
    c_en, c_de = marginal_grams(identity_super_gram(2))
    assert max_abs(c_en.mat - np.ones((2, 2))) < 1e-12
    for cm in c_de:
        assert max_abs(cm.mat - np.ones((2, 2))) < 1e-12


def test_marginal_grams_cmax(cmax):
    c_en, c_de = marginal_grams(cmax)
    assert max_abs(c_en.mat - np.eye(2)) < 1e-12
    assert max_abs(c_de[0].mat - np.ones((2, 2))) < 1e-12
    assert max_abs(c_de[1].mat - np.eye(2)) < 1e-12


def test_marginal_grams_nmr_values():
    _, c_de = marginal_grams(nmr_experimental_gram())
    assert abs(c_de[0].mat[0, 1] - (0.003 + 0.465j)) < 1e-12
    assert abs(c_de[1].mat[0, 1] - (-0.129 + 0.182j)) < 1e-12


def test_marginals_match_realization_report():
    d = 3
    pre = random_controlled_family(d, 77)
    post = random_controlled_family(d, 78)
    sg = gram_from_controlled_unitaries(pre, post)
    report = verify_dephasing_realization(
        controlled_unitary_channel(pre), controlled_unitary_channel(post), pure_memory_state(d * d)
    )
    c_en, c_de = marginal_grams(sg)
    assert max_abs(report.c_en - c_en.mat) < 1e-9
    for m in range(d):
        assert max_abs(report.c_de[m] - c_de[m].mat) < 1e-9


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

    if kind == "diag":
        return controlled(), controlled(), np.diag(rng.dirichlet(np.ones(mem))).astype(complex)
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
    raise ValueError(kind)


GENUINE_KINDS = ("diag", "coherent", "kraus-rank-2", "identity")
BROKEN_KINDS = ("unequal-memories", "non-mio-encoder", "coherence-consuming-decoder", "wrong-memory-wiring")
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
    try:
        validate_super_gram(gram, d, tol=tol)
        gram_violation = 0.0
    except ValidationError as exc:
        gram_violation = exc.value
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
        "c_en": c_en,
        "sigma": sigma,
        "c_de": c_de,
        "gram": gram,
        "max_mismatch": max_mismatch,
        "tensor": rhs,
    }


@pytest.mark.parametrize("kind", ENGINE_KINDS)
@pytest.mark.parametrize("d", [2, 3])
def test_engine_matches_per_basis_reference(kind, d):
    enc, dec, tau = realization_triple(kind, d)
    ref = reference_evaluation(enc, dec, tau)
    report = verify_dephasing_realization(enc, dec, tau)
    assert [(c.name, c.passed) for c in report.checks] == [(n, p) for n, p, _ in ref["checks"]]
    for check, (_, _, value) in zip(report.checks, ref["checks"]):
        assert abs(check.max_violation - value) <= 1e-12, check.name
    assert max_abs(report.c_en - ref["c_en"]) <= 1e-12
    for m in range(d):
        assert max_abs(report.sigma[m] - ref["sigma"][m]) <= 1e-12
        assert max_abs(report.c_de[m] - ref["c_de"][m]) <= 1e-12
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
    failed = {c.name: c.max_violation for c in err.value.report.failed_checks()}
    assert set(failed) == {"gram-structure"}
    assert failed["gram-structure"] == pytest.approx(1.8e-9, rel=1e-6)
    assert max_abs(np.diag(gram_from_simulation(noisy, noisy, tau, tol=1e-8).mat) - 1) > 1e-9


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
    assert failed.max_violation == verify_simulation_consistency(enc, dec, tau).max_mismatch
    assert failed.max_violation == pytest.approx(3e-5 / np.sqrt(2), rel=1e-6)
    with pytest.raises(NotDephasingRealizationError, match="simulation-mismatch") as err:
        gram_from_simulation(enc, dec, tau, tol=1e-9)
    assert err.value.report.checks == report.checks


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_checks_grow_as_eps_squared_and_the_mismatch_as_eps(eps):
    enc, dec, tau = audit_only_triple(eps)
    *checks, mismatch = verify_dephasing_realization(enc, dec, tau, tol=np.inf).checks
    assert max(c.max_violation for c in checks) == pytest.approx(eps**2 / 2, rel=1e-3)
    assert mismatch.name == "simulation-mismatch"
    assert mismatch.max_violation == pytest.approx(eps / np.sqrt(2), rel=1e-3)


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
