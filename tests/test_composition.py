"""Composition law as an oracle independent of the realization engine.

Wrapping one realization (enc2, dec2, tau2) around another (enc1, dec1, tau1),
with memory M1 ⊗ M2 in the state tau1 ⊗ tau2, realizes the second superchannel
applied after the first, whose Gram matrix is the Schur product of theirs. The
composed triple is built from Kraus tensors alone (``reference.compose_triples``),
so these checks pin the matrix the engine extracts, and with it the marginals
that marginal-consistency compares, from outside the engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephkit import (
    apply_super,
    gram_from_simulation,
    jamiolkowski,
    random_channel,
    validate_super_gram,
    verify_dephasing_realization,
)
from dephkit.linalg import max_abs
from reference import compose_triples, schur
from test_superchannels import BROKEN_KINDS, GENUINE_KINDS, realization_triple


def check_composition_law(d, kinds, seeds):
    """The composed triple of two genuine ones passes, extracts the Schur product, and acts as both in turn."""
    inner, outer = (realization_triple(kind, d, seed) for kind, seed in zip(kinds, seeds))
    g1, g2 = (gram_from_simulation(*t) for t in (inner, outer))
    report = verify_dephasing_realization(*compose_triples(inner, outer))
    assert report.passed, report.failed_checks()
    assert max_abs(report.gram_entries - schur(g1.mat, g2.mat)) <= 1e-12
    both = validate_super_gram(schur(g1.mat, g2.mat), d)
    ch = random_channel(d, 2, seed=seeds[0])
    in_turn = jamiolkowski(apply_super(g2, apply_super(g1, ch)))
    assert max_abs(in_turn - jamiolkowski(apply_super(both, ch))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GENUINE_KINDS), st.sampled_from(GENUINE_KINDS), st.integers(0, 2**16), st.integers(0, 2**16))
def test_composed_genuine_triples_realize_the_schur_product(inner, outer, seed1, seed2):
    check_composition_law(2, (inner, outer), (seed1, seed2))


@pytest.mark.parametrize(
    "kinds", [("diag", "coherent"), ("kraus-rank-2", "fourier-on-an-empty-level"), ("decoder-leaks-1e-200", "diag")]
)
def test_composed_genuine_qutrit_triples_realize_the_schur_product(kinds):
    # 81 memory levels: a few pairs, one of them on the engine's dense path
    check_composition_law(3, kinds, (1, 2))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(BROKEN_KINDS), st.sampled_from(GENUINE_KINDS), st.booleans(), st.integers(0, 2**16),
    st.integers(0, 2**16),
)
def test_a_broken_factor_breaks_the_composition(broken, genuine, broken_inside, seed1, seed2):
    triples = [realization_triple(broken, 2, seed1), realization_triple(genuine, 2, seed2)]
    if not broken_inside:
        triples.reverse()
    assert not verify_dephasing_realization(*compose_triples(*triples)).passed
