"""Dephasing superchannels as d^2 x d^2 Gram matrices.

A dephasing superchannel leaves every channel's classical action invariant
and acts on Jamiolkowski states by a Schur product with a Gram matrix whose
d x d diagonal blocks all coincide. This module validates such matrices,
applies them to channels, constructs them from controlled-unitary circuits
and from general encode/decode simulations, verifies when an encode/decode
pair realizes one, and provides a brute-force full-circuit oracle.

Block indexing: entry [(i, k), (j, l)] of the matrix, flattened row-major,
is element (k, l) of block (i, j).

Realization engine: every check on an encode/decode/memory triple is read
from two superoperators, each built once per call by one matrix product per
Kraus operator. With b[i,t,p,g] and a[k,g,m,a] the decoder's and encoder's
Kraus tensors ([sys_out, mem_out, sys_in, mem_in]), M the middle memory's
dimension and tau the initial memory state:

    D[(i,p,j,q),(g,h)] = sum_t b[i,t,p,g] conj(b[j,t,q,h])
        a d^4 x M^2 matrix; entry (i, j) of Tr_mem N_de(|p><q| ⊗ |g><h|)
    E[k,g,m,l,h,n] = sum_ab a[k,g,m,a] tau[a,b] conj(a[l,h,n,b])
        shape (d, M, d, d, M, d); entry ((k, g), (l, h)) of N_en(|m><n| ⊗ tau)
    R[(i,p,j,q),(k,m,l,n)] = sum_gh D[(i,p,j,q),(g,h)] E[k,g,m,l,h,n]
        a d^4 x d^4 matrix, one (d^4 x M^2)(M^2 x d^4) product; the
        simulation tensor, built only for the mismatch audit

The realization checks cost O(d^4 M^2) from diagonal views of D and E: a
composite index (x, y) of side d x d holds its matched entries x == y at
stride d + 1.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .channels import (
    Channel,
    GramMatrix,
    channel_from_jamiolkowski,
    channel_from_kraus,
    gram_matrix,
    jamiolkowski,
)
from .errors import DimensionError, NotDephasingRealizationError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    basis_matrix,
    basis_vector,
    dagger,
    kron,
    max_abs,
    measure,
    random_unitary,
    readonly_copy,
    require,
    violation,
)

# The invariants of a superchannel Gram matrix, in the order they are checked.
SUPER_GRAM_CHECKS = ("unit-diagonal", "hermitian", "psd", "equal-diagonal-blocks")


@dataclass(frozen=True)
class SuperGram:
    """Gram matrix of a dephasing superchannel acting on d-dimensional channels.

    ``deviations`` holds the measured deviation of ``mat`` from each of
    SUPER_GRAM_CHECKS, taken when it was validated (empty if it never was).
    """

    d: int
    mat: np.ndarray = field(repr=False)
    deviations: Mapping[str, float] = field(default_factory=dict, repr=False, compare=False)

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.d
        return self.mat[i * d : (i + 1) * d, j * d : (j + 1) * d]

    def c00(self) -> GramMatrix:
        return GramMatrix(mat=self.block(0, 0))


def validate_super_gram(mat, d: int, tol: float = DEFAULT_TOL) -> SuperGram:
    """Validate the defining invariants of a dephasing-superchannel Gram matrix.

    Raises ValidationError with a distinct check name per violated invariant,
    in the order of SUPER_GRAM_CHECKS: unit diagonal, Hermiticity, positive
    semidefiniteness and equality of all diagonal blocks. These imply that
    the shared diagonal block is itself a Gram matrix (its PSD check by
    Cauchy interlacing).
    """
    m = as_complex_matrix(mat)
    if d < 2:
        raise DimensionError(f"system dimension must be >= 2, got d={d}")
    if m.shape != (d * d, d * d):
        raise DimensionError(f"expected shape {(d * d, d * d)}, got {m.shape}")
    deviations = require(m, SUPER_GRAM_CHECKS, tol, "Gram matrix")
    return SuperGram(d=d, mat=readonly_copy(m), deviations=MappingProxyType(deviations))


def identity_super_gram(d: int) -> SuperGram:
    """All-ones matrix: the superchannel that leaves every channel unchanged."""
    return validate_super_gram(np.ones((d * d, d * d), dtype=complex), d)


def apply_super(sg: SuperGram, ch: Channel, tol: float = DEFAULT_TOL) -> Channel:
    """Transform a channel by Schur-multiplying its Jamiolkowski state with the Gram matrix."""
    if ch.dim_in != ch.dim_out or ch.dim_in != sg.d:
        raise DimensionError(
            f"channel dims ({ch.dim_in}->{ch.dim_out}) must equal the superchannel's d={sg.d}"
        )
    jam_out = jamiolkowski(ch) * sg.mat
    require(jam_out, ("superchannel-output-tp",), tol, "transformed channel")
    try:
        return channel_from_jamiolkowski(jam_out, tol=tol)
    except ValidationError as exc:
        raise ValidationError(
            "superchannel-output-cp", f"transformed channel failed CP validation: {exc}", exc.value
        ) from exc


# ---------------------------------------------------------------------------
# Controlled-unitary realizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlledUnitaryFamily:
    """d unitaries of size d^2, applied to the memory conditioned on the system basis."""

    d: int
    unitaries: tuple[np.ndarray, ...]


def controlled_unitary_family(unitaries, tol: float = DEFAULT_TOL) -> ControlledUnitaryFamily:
    mats = tuple(as_complex_matrix(u) for u in unitaries)
    d = len(mats)
    if d < 2:
        raise DimensionError(f"need one unitary per basis state with d >= 2, got {d}")
    for idx, u in enumerate(mats):
        if u.shape != (d * d, d * d):
            raise DimensionError(f"member {idx} has shape {u.shape}, expected {(d * d, d * d)}")
        require(u, ("unitary",), tol, f"member {idx}")
    return ControlledUnitaryFamily(d=d, unitaries=tuple(readonly_copy(u) for u in mats))


def random_controlled_family(d: int, seed: int) -> ControlledUnitaryFamily:
    rng = np.random.default_rng(seed)
    return controlled_unitary_family([random_unitary(d * d, rng) for _ in range(d)])


def gram_from_controlled_unitaries(
    pre: ControlledUnitaryFamily, post: ControlledUnitaryFamily, tol: float = DEFAULT_TOL
) -> SuperGram:
    """Gram matrix of the vectors V_i U_k |0>, addressed as [(i,k), (j,l)], validated at tol.

    Entry [(i,k), (j,l)] is <0| U_l† V_j† V_i U_k |0> with |0> the first basis
    vector of the d^2-dimensional memory.
    """
    if pre.d != post.d:
        raise DimensionError(f"family dimensions differ: {pre.d} vs {post.d}")
    d = pre.d
    e0 = basis_vector(0, d * d)
    vecs = np.empty((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            vecs[:, i * d + k] = post.unitaries[i] @ (pre.unitaries[k] @ e0)
    overlaps = dagger(vecs) @ vecs  # overlaps[a, b] = <psi_a | psi_b>
    return validate_super_gram(overlaps.T, d, tol=tol)


def random_super_gram(d: int, seed: int) -> SuperGram:
    """Random valid SuperGram from Haar-random controlled-unitary families."""
    return gram_from_controlled_unitaries(
        random_controlled_family(d, 2 * seed), random_controlled_family(d, 2 * seed + 1)
    )


# ---------------------------------------------------------------------------
# General encode/decode simulations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteChannel:
    """Trace-preserving channel on system ⊗ memory with declared factor dimensions."""

    sys_in: int
    mem_in: int
    sys_out: int
    mem_out: int
    inner: Channel

    def kraus_tensors(self) -> list[np.ndarray]:
        """Kraus operators reshaped to [sys_out, mem_out, sys_in, mem_in]."""
        shape = (self.sys_out, self.mem_out, self.sys_in, self.mem_in)
        return [k.reshape(shape) for k in self.inner.kraus]


def bipartite_channel(
    kraus, dims: tuple[int, int, int, int], tol: float = DEFAULT_TOL
) -> BipartiteChannel:
    """Build a bipartite channel from Kraus operators and (sys_in, mem_in, sys_out, mem_out), TP within tol."""
    sys_in, mem_in, sys_out, mem_out = dims
    inner = channel_from_kraus(kraus, tol=tol)
    if inner.dim_in != sys_in * mem_in or inner.dim_out != sys_out * mem_out:
        raise DimensionError(
            f"Kraus shape ({inner.dim_out}, {inner.dim_in}) inconsistent with dims {dims}"
        )
    return BipartiteChannel(sys_in, mem_in, sys_out, mem_out, inner)


def identity_bipartite(sys_dim: int, mem_dim: int) -> BipartiteChannel:
    eye = np.eye(sys_dim * mem_dim, dtype=complex)
    return bipartite_channel([eye], (sys_dim, mem_dim, sys_dim, mem_dim))


def controlled_unitary_channel(family: ControlledUnitaryFamily) -> BipartiteChannel:
    """Unitary conjugation by sum_i |i><i| ⊗ U_i on system ⊗ d^2-dimensional memory."""
    d = family.d
    u = sum(kron(basis_matrix(i, i, d), family.unitaries[i]) for i in range(d))
    return bipartite_channel([u], (d, d * d, d, d * d))


def _check_simulation_dims(enc: BipartiteChannel, dec: BipartiteChannel, tau: np.ndarray) -> int:
    tau = as_complex_matrix(tau)
    d = enc.sys_in
    if enc.sys_out != d or dec.sys_in != d or dec.sys_out != d:
        raise DimensionError("encoder and decoder must preserve the system dimension d")
    if d < 2:
        raise DimensionError(f"system dimension must be >= 2, got d={d}")
    if dec.mem_in != enc.mem_out:
        raise DimensionError(
            f"decoder memory input {dec.mem_in} != encoder memory output {enc.mem_out}"
        )
    if tau.shape != (enc.mem_in, enc.mem_in):
        raise DimensionError(f"memory state shape {tau.shape} != ({enc.mem_in}, {enc.mem_in})")
    return d


def simulation_tensor(enc: BipartiteChannel, dec: BipartiteChannel, tau: np.ndarray) -> np.ndarray:
    """Rank-8 tensor R[i,j,p,q,k,l,m,n] probing the encode/decode pair.

    R contracts the decoder superoperator (output memory traced out) against
    the encoder superoperator fed with the initial memory state. For a genuine
    dephasing realization R vanishes unless (p, q, m, n) == (i, j, k, l), and
    the surviving entries are the superchannel's Gram matrix.
    """
    d = _check_simulation_dims(enc, dec, tau)
    rhs = _tensor(*_superoperators(enc, dec, as_complex_matrix(tau)))
    return rhs.reshape((d,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)


def _superoperators(
    enc: BipartiteChannel, dec: BipartiteChannel, tau: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The decoder's D and the encoder's E, in the layouts of the module docstring."""
    d, mem = enc.sys_in, enc.mem_out
    rows = [b.transpose(1, 0, 2, 3).reshape(dec.mem_out, d * d * mem) for b in dec.kraus_tensors()]
    dec_op = sum(y.T @ y.conj() for y in rows)  # [(i,p,g),(j,q,h)]
    dec_op = dec_op.reshape(d, d, mem, d, d, mem).transpose(0, 1, 3, 4, 2, 5)
    cols = [a.reshape(d * mem * d, enc.mem_in) for a in enc.kraus_tensors()]
    enc_op = sum(x @ tau @ x.conj().T for x in cols)
    return dec_op.reshape(d**4, mem * mem), enc_op.reshape(d, mem, d, d, mem, d)


def _tensor(dec_op: np.ndarray, enc_op: np.ndarray) -> np.ndarray:
    """R as the d^4 x d^4 matrix [(i,p,j,q),(k,m,l,n)]: one (d^4 x M^2)(M^2 x d^4) product."""
    d, mem = enc_op.shape[:2]
    return dec_op @ enc_op.transpose(1, 4, 0, 2, 3, 5).reshape(mem * mem, d**4)


def _audit(rhs: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """Matched entries of R as a Gram matrix, and the largest |R| off them.

    Zeroes the matched entries of ``rhs`` in place.
    """
    matched = rhs.reshape(d * d, d * d, d * d, d * d)[:: d + 1, :: d + 1, :: d + 1, :: d + 1]
    gram = matched.transpose(0, 2, 1, 3).copy().reshape(d * d, d * d)  # [i,j,k,l] -> [(i,k),(j,l)]
    matched[...] = 0.0
    return gram, max_abs(rhs)


@dataclass(frozen=True)
class SimulationConsistencyReport:
    """Audit of the simulation tensor: extracted Gram plus off-tuple violations."""

    d: int
    gram_entries: np.ndarray = field(repr=False)
    max_mismatch: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_mismatch <= self.tol


def verify_simulation_consistency(
    enc: BipartiteChannel, dec: BipartiteChannel, tau: np.ndarray, tol: float = DEFAULT_TOL
) -> SimulationConsistencyReport:
    """Evaluate the simulation tensor everywhere and report the worst mismatched entry."""
    d = _check_simulation_dims(enc, dec, tau)
    gram, mismatch = _audit(_tensor(*_superoperators(enc, dec, as_complex_matrix(tau))), d)
    return SimulationConsistencyReport(d=d, gram_entries=gram, max_mismatch=mismatch, tol=tol)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    max_violation: float
    detail: str = ""


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of the dephasing-realization verification.

    Conditions: the encoder must act on the system as a dephasing channel for
    the shared memory state; the decoder must act as a dephasing channel for
    each conditional memory state sigma_m; and the extracted marginal Gram
    matrices must match the blocks of the superchannel's Gram matrix.
    ``gram_deviations`` holds the deviation of ``gram_entries`` from each of
    SUPER_GRAM_CHECKS; the gram-structure check reads the first above tol.

    Only when those four checks pass does ``checks`` hold a fifth,
    simulation-mismatch: the largest entry of the simulation tensor off the
    matched index tuples, which must vanish for a genuine realization. So
    ``passed`` means the triple realizes a dephasing superchannel at tol.
    The other four do not imply it at the same tol: perturbing a genuine
    decoder by exp(i eps H), they can grow as eps^2 while the mismatch grows
    as eps (at eps = 1e-4, 5e-9 against 7e-5).
    """

    checks: tuple[ConditionCheck, ...]
    c_en: np.ndarray = field(repr=False)
    c_de: tuple[np.ndarray, ...] = field(repr=False)
    sigma: tuple[np.ndarray, ...] = field(repr=False)
    gram_entries: np.ndarray = field(repr=False)
    gram_deviations: Mapping[str, float] = field(repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _report(dec_op: np.ndarray, enc_op: np.ndarray, tol: float) -> RealizationReport:
    """The four realization checks from D and E at O(d^4 M^2) cost, and the
    simulation-mismatch check from R only when those four pass."""
    d, mem = enc_op.shape[:2]

    # Encoder: reduced[(k,m),(l,n)] = Tr_mem N_en(|m><n| ⊗ tau)[k, l]
    # must vanish off (k, l) == (m, n).
    reduced = np.einsum("kgmlgn->kmln", enc_op).reshape(d * d, d * d)
    matched = reduced[:: d + 1, :: d + 1]
    c_en = matched.copy()
    matched[...] = 0.0
    enc_violation = max_abs(reduced)

    # Conditional memory states sigma_m[g, h] = Tr_sys N_en(|m><m| ⊗ tau)[g, h].
    sigma = np.einsum("kgmkhm->mgh", enc_op)

    # Decoder: images[(i,p),(j,q),m] = Tr_mem N_de(|p><q| ⊗ sigma_m)[i, j]
    # must vanish off (i, j) == (p, q).
    images = (dec_op @ sigma.reshape(d, mem * mem).T).reshape(d * d, d * d, d)
    matched = images[:: d + 1, :: d + 1]
    c_de = tuple(matched[:, :, m].copy() for m in range(d))
    matched[...] = 0.0
    worst = np.abs(images).reshape(-1, d).max(axis=0)
    worst_m = int(np.argmax(worst))
    dec_violation = float(worst[worst_m])
    dec_detail = f"worst conditional memory index m={worst_m}" if dec_violation > 0.0 else ""

    # Gram entries [(i,k),(j,l)] = R[(i,i,j,j),(k,k,l,l)], from the matched
    # rows of D and the matched columns of E.
    dec_matched = dec_op.reshape(d * d, d * d, mem * mem)[:: d + 1, :: d + 1]
    enc_matched = np.einsum("kgklhl->ghkl", enc_op).reshape(mem * mem, d * d)
    gram_entries = dec_matched.reshape(d * d, mem * mem) @ enc_matched  # [(i,j),(k,l)]
    gram_entries = gram_entries.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)

    # Marginals of the extracted Gram matrix must reproduce c_en and c_de.
    marg_violation = max(
        [max_abs(gram_entries[:d, :d] - c_en)]
        + [max_abs(gram_entries[m::d, m::d] - c_de[m]) for m in range(d)]
    )

    gram_deviations = measure(gram_entries, SUPER_GRAM_CHECKS)
    exc = violation(gram_deviations, tol, "extracted Gram matrix")
    gram_violation, gram_detail = (0.0, "") if exc is None else (exc.value, f"{exc.check}: {exc}")

    checks = (
        ConditionCheck(
            "encoder-dephasing",
            enc_violation <= tol,
            enc_violation,
            "encoder must act on the system as a dephasing channel",
        ),
        ConditionCheck(
            "decoder-dephasing",
            dec_violation <= tol,
            dec_violation,
            dec_detail or "decoder must dephase the system for every conditional memory state",
        ),
        ConditionCheck(
            "marginal-consistency",
            marg_violation <= tol,
            marg_violation,
            "diagonal block and per-level block diagonals must match the extracted marginals",
        ),
        ConditionCheck(
            "gram-structure",
            gram_violation <= tol,
            gram_violation,
            gram_detail or "extracted matrix satisfies the superchannel Gram invariants",
        ),
    )
    if all(c.passed for c in checks):
        mismatch = _audit(_tensor(dec_op, enc_op), d)[1]
        checks += (
            ConditionCheck(
                "simulation-mismatch",
                mismatch <= tol,
                mismatch,
                "simulation tensor must vanish off the matched index tuples",
            ),
        )
    return RealizationReport(
        checks=checks,
        c_en=c_en,
        c_de=c_de,
        sigma=tuple(sigma),
        gram_entries=gram_entries,
        gram_deviations=MappingProxyType(gram_deviations),
    )


def verify_dephasing_realization(
    enc: BipartiteChannel, dec: BipartiteChannel, tau: np.ndarray, tol: float = DEFAULT_TOL
) -> RealizationReport:
    """Check whether (enc, dec, tau) realizes a dephasing superchannel.

    Every condition quantified over states is checked on the operator basis
    |m><n|, which is exact by linearity; the images of all basis operators
    are diagonal views of the decoder and encoder superoperators. The
    simulation tensor is built only for a triple that passes the other four
    checks. Purely diagnostic: never raises on a failing realization.
    """
    _check_simulation_dims(enc, dec, tau)
    return _report(*_superoperators(enc, dec, as_complex_matrix(tau)), tol)


def gram_from_simulation(
    enc: BipartiteChannel, dec: BipartiteChannel, tau: np.ndarray, tol: float = DEFAULT_TOL
) -> SuperGram:
    """Extract the superchannel's Gram matrix realized by (enc, dec, tau).

    Refuses to return a matrix unless every check of
    verify_dephasing_realization passes: the realization conditions, which
    include the Gram invariants of the extracted matrix, and the vanishing
    of the simulation tensor at all mismatched index tuples. D, E and R die
    with that call, so the traceback of the error holds none of them.
    """
    report = verify_dephasing_realization(enc, dec, tau, tol)
    if not report.passed:
        names = ", ".join(c.name for c in report.failed_checks())
        raise NotDephasingRealizationError(
            f"not a dephasing-superchannel realization; violated condition(s): {names}", report
        )
    return SuperGram(d=enc.sys_in, mat=readonly_copy(report.gram_entries), deviations=report.gram_deviations)


def circuit_oracle(
    enc: BipartiteChannel, dec: BipartiteChannel, tau: np.ndarray, ch: Channel
) -> Channel:
    """Full circuit Tr_mem ∘ N_de ∘ (E ⊗ I) ∘ N_en(· ⊗ tau) by Kraus composition.

    Brute-force reference: makes no dephasing assumption about enc/dec.
    """
    d = _check_simulation_dims(enc, dec, tau)
    tau = as_complex_matrix(tau)
    if ch.dim_in != d or ch.dim_out != d:
        raise DimensionError(f"channel dims ({ch.dim_in}->{ch.dim_out}) must equal d={d}")

    vals, vecs = np.linalg.eigh((tau + dagger(tau)) / 2)
    prep = [
        np.sqrt(lam) * kron(np.eye(d), v[:, None]) for lam, v in zip(vals, vecs.T) if lam > 1e-14
    ]
    mem_mid = enc.mem_out
    mid = [kron(k, np.eye(mem_mid)) for k in ch.kraus]
    discard = [kron(np.eye(d), basis_vector(b, dec.mem_out)[None, :]) for b in range(dec.mem_out)]

    kraus = [
        t @ b @ m @ a @ p
        for p in prep
        for a in enc.inner.kraus
        for m in mid
        for b in dec.inner.kraus
        for t in discard
    ]
    return channel_from_kraus(kraus)


def marginal_grams(sg: SuperGram, tol: float = DEFAULT_TOL) -> tuple[GramMatrix, list[GramMatrix]]:
    """Marginal dephasing actions: the shared diagonal block, and for each basis
    level m the matrix of (m, m) entries of every block."""
    d = sg.d
    c_en = gram_matrix(sg.block(0, 0), tol=tol)
    c_de = [gram_matrix(sg.mat[m::d, m::d], tol=tol) for m in range(d)]
    return c_en, c_de
