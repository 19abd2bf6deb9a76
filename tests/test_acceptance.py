"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import CMAX, permutation
from dephkit import (
    BipartiteChannel,
    Channel,
    NotDephasingRealizationError,
    SuperGram,
    ValidationError,
    affine_from_channel,
    apply_super,
    bipartite_channel,
    circuit_oracle,
    classical_action,
    coherence_generating_power,
    controlled_unitary_channel,
    controlled_unitary_family,
    decompose_product_qubit,
    family_gram,
    family_ppt_closed_form,
    gram_action_on_affine,
    gram_from_controlled_unitaries,
    gram_from_simulation,
    is_passive_compatible,
    jamiolkowski,
    kron,
    l1_distance,
    memory_activity_qubit,
    nearest_passive_qubit,
    nmr_experimental_gram,
    ppt_min_eig,
    random_channel,
    random_controlled_family,
    random_super_gram,
    realize_super_gram,
    validate_super_gram,
    verify_dephasing_realization,
)
from dephkit.linalg import basis_vector, max_abs

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@contextmanager
def criterion(num: int, name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    within = budget is None or elapsed < budget
    print(f"[criterion {num:02d}] {name}: {'PASS' if within else 'FAIL'} ({elapsed:.2f}s)")
    assert within, f"runtime {elapsed:.2f}s exceeded the {budget}s budget"


@dataclass
class SimFixture:
    d: int
    enc: BipartiteChannel
    dec: BipartiteChannel
    tau: np.ndarray
    gram: SuperGram
    channels: list[Channel]


def _pure_memory(dim: int) -> np.ndarray:
    e = basis_vector(0, dim)
    return np.outer(e, e.conj())


@pytest.fixture(scope="module")
def sim_fixtures() -> list[SimFixture]:
    """55 random controlled-unitary realizations (30 at d=2, 25 at d=3), 5 channels each."""
    fixtures = []
    for d, count, base in ((2, 30, 0), (3, 25, 50_000)):
        for i in range(count):
            pre = random_controlled_family(d, base + 2 * i)
            post = random_controlled_family(d, base + 2 * i + 1)
            enc = controlled_unitary_channel(pre)
            dec = controlled_unitary_channel(post)
            tau = _pure_memory(d * d)
            gram = gram_from_simulation(enc, dec, tau)
            chans = [random_channel(d, 2, base + 7000 + 5 * i + j) for j in range(5)]
            fixtures.append(SimFixture(d, enc, dec, tau, gram, chans))
    return fixtures


def test_criterion_01_nmr_reproduction():
    with criterion(1, "experimental matrix memory activity = 0.625", budget=1.0):
        activity = memory_activity_qubit(nmr_experimental_gram())
        assert abs(activity - 0.625) < 5e-4


def test_criterion_02_family_partial_transpose_eigenvalue():
    with criterion(2, "family partial-transpose eigenvalue closed form", budget=5.0):
        rng = np.random.default_rng(7)
        pairs = [(a, b) for a in (0, 0.25, 0.5, 0.75, 1.0) for b in (0, 0.3, 0.6, 0.9, 1.0)]
        pairs += [
            tuple(np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()) for _ in range(2))
            for _ in range(10)
        ]
        assert len(pairs) >= 25
        for alpha, beta in pairs:
            got = ppt_min_eig(family_gram(alpha, beta))
            assert abs(got - family_ppt_closed_form(alpha, beta)) < 1e-9


def test_criterion_03_family_realization_roundtrip():
    with criterion(3, "explicit family realization round trip", budget=5.0):
        rng = np.random.default_rng(11)
        params = [(1.0, 1.0)] + [
            tuple(np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()) for _ in range(2))
            for _ in range(10)
        ]
        for alpha, beta in params:
            pre, post = realize_super_gram(family_gram(alpha, beta))
            recon = gram_from_controlled_unitaries(pre, post)
            assert max_abs(recon.mat - family_gram(alpha, beta).mat) < 1e-9


def test_criterion_04_simulation_formula_vs_circuit_oracle(sim_fixtures):
    with criterion(4, "simulation Gram formula matches the circuit oracle", budget=60.0):
        assert len(sim_fixtures) >= 50
        assert {f.d for f in sim_fixtures} == {2, 3}
        for fx in sim_fixtures:
            for ch in fx.channels:
                via_gram = apply_super(fx.gram, ch)
                via_circuit = circuit_oracle(fx.enc, fx.dec, fx.tau, ch)
                diff = max_abs(jamiolkowski(via_gram) - jamiolkowski(via_circuit))
                assert diff <= 1e-9


def _violated_fixtures():
    """Three deliberate violations with the condition each must trip."""
    d = 2
    valid_dec = controlled_unitary_channel(random_controlled_family(d, 31337))
    valid_enc = controlled_unitary_channel(random_controlled_family(d, 31338))
    tau = _pure_memory(d * d)

    non_mio_enc = bipartite_channel([kron(HADAMARD, np.eye(4))], (2, 4, 2, 4))

    coherence_consuming_dec = bipartite_channel([kron(HADAMARD, np.eye(4))], (2, 4, 2, 4))

    # Wrong memory wiring: the encoder stores the input level in the memory,
    # the decoder flips the system exactly on the branch fed by level m=1.
    enc_store = controlled_unitary_channel(
        controlled_unitary_family([np.eye(4, dtype=complex), permutation(4, 0, 1)])
    )
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    flip = np.zeros((8, 8), dtype=complex)
    for theta in range(4):
        marker = np.zeros((4, 4))
        marker[theta, theta] = 1
        flip += kron(sx if theta == 1 else np.eye(2), marker)
    wrong_wiring_dec = bipartite_channel([flip], (2, 4, 2, 4))

    return [
        ("non-MIO encoder", non_mio_enc, valid_dec, tau, "encoder-dephasing"),
        ("coherence-consuming decoder", valid_enc, coherence_consuming_dec, tau, "decoder-dephasing"),
        ("wrong conditional-memory wiring", enc_store, wrong_wiring_dec, tau, "decoder-dephasing"),
    ]


def test_criterion_05_realization_verifier(sim_fixtures):
    with criterion(5, "realization verifier accepts genuine and rejects violated fixtures", budget=30.0):
        for fx in sim_fixtures:
            report = verify_dephasing_realization(fx.enc, fx.dec, fx.tau)
            assert report.passed

        fixtures = _violated_fixtures()
        assert len(fixtures) >= 3
        for label, enc, dec, tau, expected_condition in fixtures:
            report = verify_dephasing_realization(enc, dec, tau)
            assert not report.passed, label
            failed = {c.name for c in report.failed_checks()}
            assert expected_condition in failed, (label, failed)
            with pytest.raises(NotDephasingRealizationError):
                gram_from_simulation(enc, dec, tau)
        # the wrong-wiring decoder must implicate only the decoder side
        report = verify_dephasing_realization(*_violated_fixtures()[2][1:4])
        assert "encoder-dephasing" not in {c.name for c in report.failed_checks()}


def test_criterion_06_classical_action_invariance(sim_fixtures):
    with criterion(6, "classical action invariance across the fixture set"):
        counts = {2: 0, 3: 0}
        for fx in sim_fixtures:
            for ch in fx.channels:
                residual = max_abs(classical_action(apply_super(fx.gram, ch)) - classical_action(ch))
                assert residual <= 1e-9
                counts[fx.d] += 1
        assert counts[2] >= 100 and counts[3] >= 20


def test_criterion_07_coherence_generation_monotonicity(sim_fixtures):
    with criterion(7, "coherence generating power never increases"):
        for fx in sim_fixtures:
            for ch in fx.channels:
                before = coherence_generating_power(ch)
                after = coherence_generating_power(apply_super(fx.gram, ch))
                assert after <= before + 1e-9


def _random_passive_mixture(rng: np.random.Generator) -> SuperGram:
    mat = np.zeros((4, 4), dtype=complex)
    for w in rng.dirichlet(np.ones(3)):
        factors = []
        for _ in range(2):
            c = 0.995 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            factors.append(np.array([[1.0, np.conj(c)], [c, 1.0]]))
        mat += w * kron(factors[0], factors[1])
    return validate_super_gram(mat, 2)


def test_criterion_08_activity_quantifier_tightness():
    with criterion(8, "l1 activity quantifier is tight and a lower bound"):
        for seed in range(100):
            sg = random_super_gram(2, 90_000 + seed)
            nearest = nearest_passive_qubit(sg)
            assert is_passive_compatible(nearest, 1e-9)
            assert abs(l1_distance(sg.mat, nearest.mat) - memory_activity_qubit(sg)) < 1e-9

        rng = np.random.default_rng(123)
        targets = [random_super_gram(2, 95_000 + k) for k in range(10)]
        checked = 0
        for sg in targets:
            bound = memory_activity_qubit(sg)
            for _ in range(10):
                passive = _random_passive_mixture(rng)
                assert l1_distance(sg.mat, passive.mat) >= bound - 1e-9
                checked += 1
        assert checked >= 100


def test_criterion_09_product_decomposition_roundtrip():
    with criterion(9, "passive mixtures decompose and reconstruct"):
        rng = np.random.default_rng(321)
        for _ in range(50):
            sg = _random_passive_mixture(rng)
            dec = decompose_product_qubit(sg, tol=1e-10)
            assert len(dec.terms) <= 8
            assert max_abs(dec.reconstruct() - sg.mat) <= 1e-10
            assert abs(dec.total_weight() - 1) <= 1e-10

        cmax = validate_super_gram(CMAX, 2)
        with pytest.raises(ValidationError) as err:
            decompose_product_qubit(cmax)
        assert err.value.check == "passive-compatibility"


def test_criterion_10_cmax_affine_closed_form():
    with criterion(10, "closed-form affine action of the maximal example"):
        cmax = validate_super_gram(CMAX, 2)
        for seed in range(100):
            ch = random_channel(2, 2 + seed % 3, seed)
            aff = affine_from_channel(ch)
            out = gram_action_on_affine(cmax, aff)
            w, t = aff.lam[:, 2], aff.t
            expected_lam = np.zeros((3, 3))
            expected_lam[:, 2] = [(w[0] + t[0]) / 2, (w[1] + t[1]) / 2, w[2]]
            expected_t = np.array([(w[0] + t[0]) / 2, (w[1] + t[1]) / 2, t[2]])
            assert max_abs(out.lam - expected_lam) < 1e-9
            assert max_abs(out.t - expected_t) < 1e-9
