"""Dephasing superchannels as d^2 x d^2 Gram matrices.

A dephasing superchannel leaves every channel's classical action invariant
and acts on Jamiolkowski states by a Schur product with a Gram matrix whose
d x d diagonal blocks all coincide. This module validates such matrices,
applies them to channels, constructs them from controlled-unitary circuits
and from general encode/decode simulations, realizes any valid matrix by a
controlled-unitary circuit (``realize_super_gram``), verifies when an
encode/decode pair realizes one, and provides a brute-force full-circuit
oracle.

Block indexing: entry [(i, k), (j, l)] of the matrix, flattened row-major,
is element (k, l) of block (i, j).

Realization engine. Each entry point checks the memory state tau once, as a
"memory state", by the check of ``density_matrix``: "hermitian", "unit-trace"
and "psd" at the caller's tol, whose ``psd_factors`` call gives S with S S† = tau.
With a_c and b_c the encoder's and decoder's Kraus tensors ([sys_out,
mem_out, sys_in, mem_in], stacked over c by ``kraus_tensors``, so c stays
first) and M the middle memory's dimension, every contraction reads two
folded tensors, whose index pairs (c, r) and (c, t) are summed as one and
written r and t below:

    x[k,g,m,(c,r)] = sum_a a_c[k,g,m,a] S[a,r], the encoder with tau absorbed
    b[i,(c,t),p,g] = b_c[i,t,p,g], the Kraus index folded into the traced memory

    D[(i,p,j,q),(g,h)] = sum_t b[i,t,p,g] conj(b[j,t,q,h])
        a d^4 x M^2 matrix; entry (i, j) of Tr_mem N_de(|p><q| ⊗ |g><h|)
    E[k,g,m,l,h,n] = sum_r x[k,g,m,r] conj(x[l,h,n,r]), that is E = x x†
        shape (d, M, d, d, M, d); entry ((k, g), (l, h)) of N_en(|m><n| ⊗ tau)
    R[(i,p,j,q),(k,m,l,n)] = sum_gh D[(i,p,j,q),(g,h)] E[k,g,m,l,h,n]
        the simulation tensor, one (d^4 x M^2)(M^2 x d^4) product

The four realization checks never build D or E. Each quantity they read is
one product of the folded tensors, over all Kraus operators at once:

    the matched rows D[(i,i,j,j),:] and the matched columns E[k,:,k,l,:,l]
    sigma_m = Tr_sys N_en(|m><m| ⊗ tau), batched over m
    Tr_mem N_en(|m><n| ⊗ tau), one d^2 x d^2 product summed over (g, r)
    Tr_mem N_de(|p><q| ⊗ sigma_m), batched over m

The Gram entries R[(i,i,j,j),(k,k,l,l)] are the product of the matched rows
and columns, and the marginals they must reproduce come from the same two:
the encoder's marginal sums the matched columns over g == h, and the
decoder's marginal at level m contracts the matched rows with sigma_m.
The last two products serve only the dephasing checks, and both skip
exact zeros. If x[k,g,m,r] is exactly 0.0 wherever k != m, as in every
system-controlled encoder, each entry of Tr_mem N_en(|m><n| ⊗ tau) off
(k, l) == (m, n) is a sum of products with an exact-zero factor. So
encoder-dephasing reads 0.0 without that product, and sigma_m is block
(m, m) of the matched columns. Likewise, if b[i,t,p,g] is exactly 0.0
wherever i != p, decoder-dephasing reads 0.0 without the decoder's images:
2c d^9 multiply-adds, with c its Kraus rank and d^2 memory levels on both
of its sides. The test is exact, not a tolerance: a
single unmatched entry of 1e-200 takes the full product. It reads each
tensor once.

The fifth check, simulation-mismatch, is the largest |R| off the matched
index tuples. It needs R only when the first two checks read a nonzero
value. Built from tau = S S†, R is a Gram matrix, R = sum W ⊗ conj(W) over
the composite Kraus operators

    W[(i,p),(k,m)] = sum_g b[i,t,p,g] x[k,g,m,r],

so |R[y,z]| <= sqrt(R[y,y] R[z,z]) with y = (i,p,k,m). An unmatched y has
k != m or i != p. At k != m, summing R[y,y] over i gives the encoder's
reduced[(k,m),(k,m)] (the decoder is trace preserving); at i != p,
summing R[y,y] over k at fixed m gives the decoder's images[m,(i,p),(i,p)].
The terms of both sums are nonnegative, the two entries are ones the
encoder-dephasing and decoder-dephasing checks read, and every R[z,z] is
at most 1 + tol, so with v the larger of those two check values

    simulation-mismatch <= sqrt((1 + tol) v).

So v == 0.0 gives a mismatch of exactly 0.0 and nothing is built; that
covers every system-controlled triple. For any other triple that passes the
first four checks, D, E and R are built as above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, _channel_from_jamiolkowski, _psd_factor, channel_from_kraus, jamiolkowski
from .errors import DimensionError, NotDephasingRealizationError
from .linalg import (
    DEFAULT_TOL,
    Check,
    as_complex_matrix,
    basis_matrix,
    basis_vector,
    dagger,
    kron,
    max_abs,
    measure,
    psd_factors,
    random_unitary,
    readonly_copy,
    require,
)

# The invariants of a superchannel Gram matrix, in the order they are checked.
SUPER_GRAM_CHECKS = ("unit-diagonal", "hermitian", "psd", "equal-diagonal-blocks")


@dataclass(frozen=True)
class SuperGram:
    """Gram matrix of a dephasing superchannel acting on d-dimensional channels.

    ``checks`` holds one ``Check`` of ``mat`` per SUPER_GRAM_CHECKS, made
    at the tol it was validated at (empty if it never was).
    """

    d: int
    mat: np.ndarray = field(repr=False)
    checks: tuple[Check, ...] = field(default=(), repr=False, compare=False)


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
    checks = require(m, SUPER_GRAM_CHECKS, tol, "Gram matrix")
    return SuperGram(d=d, mat=readonly_copy(m), checks=checks)


def apply_super(sg: SuperGram, ch: Channel, tol: float = DEFAULT_TOL) -> Channel:
    """Transform a channel by Schur-multiplying its Jamiolkowski state with the Gram matrix,
    a "transformed channel" refused as channel_from_jamiolkowski refuses a matrix at tol."""
    if ch.dim_in != ch.dim_out or ch.dim_in != sg.d:
        raise DimensionError(
            f"channel dims ({ch.dim_in}->{ch.dim_out}) must equal the superchannel's d={sg.d}"
        )
    return _channel_from_jamiolkowski(jamiolkowski(ch) * sg.mat, tol, "transformed channel")


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


def _polar(m: np.ndarray) -> np.ndarray:
    """The unitary polar factor u vh of each matrix of a stack, from one SVD."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def realize_super_gram(sg: SuperGram, tol: float = DEFAULT_TOL) -> tuple[ControlledUnitaryFamily, ControlledUnitaryFamily]:
    """Families whose gram_from_controlled_unitaries is sg, each unitary checked within tol.

    With sg.mat = S S†, psi_(i,k) row (i, k) of S padded to d^2 entries and
    Psi_i the matrix of columns psi_(i,k): U_k = polar(psi_(0,k) e_0†) takes
    |0> to the unit vector psi_(0,k), and V_i = polar(Psi_i Psi_0†) takes
    Psi_0 to Psi_i, as some unitary does, since equal diagonal blocks say
    Psi_i† Psi_i = Psi_0† Psi_0.
    """
    d = sg.d
    s = psd_factors(sg.mat)[1]
    psi = np.zeros((d, d * d, d), dtype=complex)  # psi[i, :, k] = psi_(i,k)
    psi[:, : s.shape[1]] = s.reshape(d, d, -1).transpose(0, 2, 1)
    prep = np.zeros((d, d * d, d * d), dtype=complex)
    prep[:, :, 0] = psi[0].T
    return tuple(controlled_unitary_family(_polar(m), tol) for m in (prep, psi @ dagger(psi[0])))


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

    def kraus_tensors(self) -> np.ndarray:
        """Kraus operators stacked as [kraus, sys_out, mem_out, sys_in, mem_in]."""
        shape = (len(self.inner.kraus), self.sys_out, self.mem_out, self.sys_in, self.mem_in)
        return np.concatenate(self.inner.kraus).reshape(shape)


def bipartite_channel(
    kraus, dims: tuple[int, int, int, int], tol: float = DEFAULT_TOL
) -> BipartiteChannel:
    """Build a bipartite channel from Kraus operators and (sys_in, mem_in, sys_out, mem_out), TP within tol."""
    if min(dims) < 1:
        raise DimensionError(f"factor dimensions must be >= 1, got {dims}")
    sys_in, mem_in, sys_out, mem_out = dims
    inner = channel_from_kraus(kraus, tol=tol)
    if inner.dim_in != sys_in * mem_in or inner.dim_out != sys_out * mem_out:
        raise DimensionError(
            f"Kraus shape ({inner.dim_out}, {inner.dim_in}) inconsistent with dims {dims}"
        )
    return BipartiteChannel(sys_in, mem_in, sys_out, mem_out, inner)


def controlled_unitary_channel(family: ControlledUnitaryFamily, tol: float = DEFAULT_TOL) -> BipartiteChannel:
    """Unitary conjugation by sum_i |i><i| ⊗ U_i on system ⊗ d^2-dimensional memory, TP within tol."""
    d = family.d
    u = sum(kron(basis_matrix(i, i, d), family.unitaries[i]) for i in range(d))
    return bipartite_channel([u], (d, d * d, d, d * d), tol)


def _memory_factor(enc: BipartiteChannel, dec: BipartiteChannel, tau, tol: float) -> np.ndarray:
    """S with S S† = tau, once the triple's dimensions agree and tau is a state within tol."""
    d = enc.sys_in
    if enc.sys_out != d or dec.sys_in != d or dec.sys_out != d:
        raise DimensionError("encoder and decoder must preserve the system dimension d")
    if d < 2:
        raise DimensionError(f"system dimension must be >= 2, got d={d}")
    if dec.mem_in != enc.mem_out:
        raise DimensionError(f"decoder memory input {dec.mem_in} != encoder memory output {enc.mem_out}")
    if np.shape(tau) != (enc.mem_in, enc.mem_in):
        raise DimensionError(f"memory state shape {np.shape(tau)} != ({enc.mem_in}, {enc.mem_in})")
    return _psd_factor(tau, ("hermitian", "unit-trace"), tol, "memory state")[1]


def _folded(enc: BipartiteChannel, dec: BipartiteChannel, tau, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The folded encoder x and decoder b of the module docstring, once tau is checked at tol."""
    s = _memory_factor(enc, dec, tau, tol)
    a = enc.kraus_tensors()
    return (a.reshape(-1, enc.mem_in) @ s).reshape(a.shape[:4] + (-1,)), dec.kraus_tensors()


def simulation_tensor(
    enc: BipartiteChannel, dec: BipartiteChannel, tau: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Rank-8 tensor R[i,j,p,q,k,l,m,n] probing the encode/decode pair.

    R contracts the decoder superoperator (output memory traced out) against
    the encoder superoperator fed with the initial memory state. For a genuine
    dephasing realization R vanishes unless (p, q, m, n) == (i, j, k, l), and
    the surviving entries are the superchannel's Gram matrix. Raises
    ValidationError when tau is not a state within tol.
    """
    d = enc.sys_in
    rhs = _tensor(*_superoperators(*_folded(enc, dec, tau, tol)))
    return rhs.reshape((d,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)


def _superoperators(x: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decoder's D and the encoder's E from the folded tensors, in the layouts of the module docstring."""
    _, d, mem = x.shape[:3]
    rows = b.transpose(0, 2, 1, 3, 4).reshape(-1, d * d * mem)  # [(c,t),(i,p,g)]
    dec_op = rows.T @ rows.conj()  # [(i,p,g),(j,q,h)]
    dec_op = dec_op.reshape(d, d, mem, d, d, mem).transpose(0, 1, 3, 4, 2, 5)
    cols = x.transpose(1, 2, 3, 0, 4).reshape(d * mem * d, -1)  # [(k,g,m),(c,r)]
    enc_op = cols @ dagger(cols)
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
    """Evaluate the simulation tensor everywhere and report the worst mismatched entry;
    raises ValidationError when tau is not a state within tol."""
    d = enc.sys_in
    gram, mismatch = _audit(_tensor(*_superoperators(*_folded(enc, dec, tau, tol))), d)
    return SimulationConsistencyReport(d=d, gram_entries=gram, max_mismatch=mismatch, tol=tol)


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of the dephasing-realization verification.

    Conditions: the encoder must act on the system as a dephasing channel for
    the shared memory state; the decoder must act as a dephasing channel for
    each conditional memory state sigma_m; and the extracted marginal Gram
    matrices must match the blocks of the superchannel's Gram matrix.
    Each check is a ``Check`` of its measured value against tol, and
    ``passed`` is derived from those records.
    ``gram_checks`` holds one ``Check`` of ``gram_entries`` per
    SUPER_GRAM_CHECKS at tol; the gram-structure check reads the largest of
    their values and names its check, so it passes exactly when they all do.
    The decoder check's detail names the lowest memory level m whose violation
    lies within tol of the worst, so rounding never picks among exact ties.

    Every quantity of those four checks is a contraction of the Kraus
    tensors; the marginals come from the products that give gram_entries.
    Where the encoder's (decoder's) Kraus tensors are exactly zero off equal
    system input and output, as in every system-controlled circuit,
    encoder-dephasing (decoder-dephasing) reads exactly 0.0 without
    multiplying those zeros (module docstring), the value the full product
    gives. Only when the four checks pass does ``checks`` hold a fifth,
    simulation-mismatch: the largest entry of the simulation tensor off the
    matched index tuples, which must vanish for a genuine realization. So
    ``passed`` means the triple realizes a dephasing superchannel at tol.
    With v the larger of the encoder-dephasing and decoder-dephasing values,
    the mismatch is at most sqrt((1 + tol) v) (argued in the module
    docstring): it reads exactly 0.0 when v == 0.0, and is measured on the
    built tensor otherwise. The bound is why the four checks do not imply
    the fifth at the same tol: perturbing a genuine decoder by exp(i eps H),
    v can grow as eps^2 while the mismatch grows as eps, with equality in
    the bound (at eps = 1e-4, 5e-9 against 7e-5).
    """

    checks: tuple[Check, ...]
    gram_entries: np.ndarray = field(repr=False)
    gram_checks: tuple[Check, ...] = field(repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _unmatched(rows: np.ndarray, d: int) -> np.ndarray:
    """The rows (k, m) with k != m of a matrix whose d^2 rows are indexed by (k, m), as a view."""
    return rows[1:].reshape(d - 1, d + 1, -1)[:, :d]


def _encoder_leakage(x: np.ndarray, lhs: np.ndarray) -> tuple[np.ndarray, float]:
    """The sigma_m and the encoder-dephasing value, multiplying every row of lhs (x as [(k,m),(g,c,r)])."""
    _, d, mem = x.shape[:3]
    reduced = lhs @ dagger(lhs)
    reduced[:: d + 1, :: d + 1] = 0.0
    rows = x.transpose(3, 2, 1, 0, 4).reshape(d, mem, -1)  # [m,g,(k,c,r)]
    return rows @ dagger(rows), max_abs(reduced)


def _decoder_leakage(rows: np.ndarray, sigma: np.ndarray, tol: float) -> tuple[float, str]:
    """The decoder-dephasing value and its detail, multiplying every row of rows (b as [(i,p),(c,t,g)])."""
    d, mem = sigma.shape[:2]
    rows_sigma = (rows.reshape(-1, mem) @ sigma).reshape(d, d * d, -1)  # [m,(i,p),(c,t,h)]
    images = rows_sigma @ dagger(rows)
    images[:, :: d + 1, :: d + 1] = 0.0
    worst = np.abs(images).reshape(d, -1).max(axis=1)
    violation = float(worst.max())
    worst_m = int(np.argmax(worst >= violation - tol))
    return violation, f"worst conditional memory index m={worst_m}" if violation > 0.0 else ""


def _report(x: np.ndarray, b: np.ndarray, tol: float) -> RealizationReport:
    """The four realization checks from the folded tensors, and the
    simulation-mismatch check only when those four pass."""
    _, d, mem = x.shape[:3]

    # Encoder: reduced[(k,m),(l,n)] = Tr_mem N_en(|m><n| ⊗ tau)[k, l]
    # must vanish off (k, l) == (m, n). Conditional memory states
    # sigma_m[g, h] = Tr_sys N_en(|m><m| ⊗ tau)[g, h]. Matched columns of E:
    # enc_matched[(k,g),(l,h)] = N_en(|k><l| ⊗ tau)[(k,g),(l,h)].
    lhs = np.einsum("ckgkr->kgcr", x).reshape(d * mem, -1)  # [(k,g),(c,r)]
    enc_matched = (lhs @ dagger(lhs)).reshape(d, mem, d, mem)
    lhs = x.transpose(1, 3, 2, 0, 4).reshape(d * d, -1)  # [(k,m),(g,c,r)]
    if _unmatched(lhs, d).any():
        sigma, enc_violation = _encoder_leakage(x, lhs)
    else:  # exact zeros off k == m: reduced vanishes there, and sigma_m is block (m, m) of enc_matched
        sigma, enc_violation = np.einsum("mgmh->mgh", enc_matched), 0.0

    # Decoder: images[m,(i,p),(j,q)] = Tr_mem N_de(|p><q| ⊗ sigma_m)[i, j]
    # must vanish off (i, j) == (p, q); exact zeros off i == p make it so.
    # Matched rows of D: dec_matched[(i,g),(j,h)] = Tr_mem N_de(|i><j| ⊗ |g><h|)[i, j].
    rows = b.transpose(1, 3, 0, 2, 4).reshape(d * d, -1)  # [(i,p),(c,t,g)]
    dec_violation, dec_detail = _decoder_leakage(rows, sigma, tol) if _unmatched(rows, d).any() else (0.0, "")
    rows = np.einsum("citig->igct", b).reshape(d * mem, -1)  # [(i,g),(c,t)]
    dec_matched = rows @ dagger(rows)

    # c_en[k,l] = sum_g enc_matched[(k,g),(l,g)] = reduced[(k,k),(l,l)], and
    # c_de[m,i,j] = sum_gh dec_matched[(i,g),(j,h)] sigma_m[g,h] = images[m,(i,i),(j,j)].
    # Gram entries [(i,k),(j,l)] = R[(i,i,j,j),(k,k,l,l)]
    #   = sum_gh dec_matched[(i,g),(j,h)] enc_matched[(k,g),(l,h)].
    c_en = enc_matched.trace(axis1=1, axis2=3)
    dec_matched = dec_matched.reshape(d, mem, d, mem).transpose(0, 2, 1, 3).reshape(d * d, mem * mem)
    c_de = (sigma.reshape(d, -1) @ dec_matched.T).reshape(d, d, d)
    enc_matched = enc_matched.transpose(1, 3, 0, 2).reshape(mem * mem, d * d)
    gram_entries = dec_matched @ enc_matched  # [(i,j),(k,l)]
    gram_entries = gram_entries.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)

    # Marginals of the extracted Gram matrix must reproduce c_en and c_de.
    blocks = gram_entries.reshape(d, d, d, d)  # [i,k,j,l]
    marg_violation = max(max_abs(blocks[0, :, 0, :] - c_en), max_abs(np.einsum("imjm->mij", blocks) - c_de))

    gram_checks = measure(gram_entries, SUPER_GRAM_CHECKS, tol)
    worst = max(gram_checks, key=lambda c: c.value)

    checks = [
        Check("encoder-dephasing", enc_violation, tol, "encoder must act on the system as a dephasing channel"),
        Check("decoder-dephasing", dec_violation, tol,
              dec_detail or "decoder must dephase the system for every conditional memory state"),
        Check("marginal-consistency", marg_violation, tol,
              "diagonal block and per-level block diagonals must match the extracted marginals"),
        Check("gram-structure", worst.value, tol, f"largest deviation of the Gram invariants: {worst.name}"),
    ]
    if all(c.passed for c in checks):
        # mismatch <= sqrt((1 + tol) v), so v == 0 gives 0.0 without R (module docstring)
        v = max(enc_violation, dec_violation)
        mismatch = 0.0 if v == 0.0 else _audit(_tensor(*_superoperators(x, b)), d)[1]
        checks.append(
            Check("simulation-mismatch", mismatch, tol, "simulation tensor must vanish off the matched index tuples")
        )
    return RealizationReport(checks=tuple(checks), gram_entries=gram_entries, gram_checks=gram_checks)


def verify_dephasing_realization(
    enc: BipartiteChannel, dec: BipartiteChannel, tau: np.ndarray, tol: float = DEFAULT_TOL
) -> RealizationReport:
    """Check whether (enc, dec, tau) realizes a dephasing superchannel.

    Every condition quantified over states is checked on the operator basis
    |m><n|, which is exact by linearity; the images of all basis operators
    are contractions of the Kraus tensors. The simulation tensor is built
    only for a triple that passes the other four checks with a nonzero
    encoder-dephasing or decoder-dephasing value; at zero, the bound of
    RealizationReport makes simulation-mismatch exactly 0.0. Purely
    diagnostic: never raises on a failing realization. Raises ValueError for
    a NaN or negative tol, and ValidationError for a tau not a state at tol.
    """
    return _report(*_folded(enc, dec, tau, tol), tol)


def gram_from_simulation(
    enc: BipartiteChannel, dec: BipartiteChannel, tau: np.ndarray, tol: float = DEFAULT_TOL
) -> SuperGram:
    """Extract the superchannel's Gram matrix realized by (enc, dec, tau).

    Refuses to return a matrix unless every check of
    verify_dephasing_realization passes: the realization conditions, which
    include the Gram invariants of the extracted matrix, and the vanishing
    of the simulation tensor at all mismatched index tuples. Whatever that
    call builds dies with it, so the traceback of the error holds none of it.
    A tau that is not a state within tol raises ValidationError instead.
    """
    report = verify_dephasing_realization(enc, dec, tau, tol)
    if not report.passed:
        names = ", ".join(c.name for c in report.failed_checks())
        raise NotDephasingRealizationError(
            f"not a dephasing-superchannel realization; violated condition(s): {names}", report
        )
    return SuperGram(d=enc.sys_in, mat=readonly_copy(report.gram_entries), checks=report.gram_checks)


def circuit_oracle(
    enc: BipartiteChannel, dec: BipartiteChannel, tau: np.ndarray, ch: Channel, tol: float = DEFAULT_TOL
) -> Channel:
    """Full circuit Tr_mem ∘ N_de ∘ (E ⊗ I) ∘ N_en(· ⊗ tau) by Kraus composition.

    Brute-force reference: makes no dephasing assumption about enc/dec.
    Raises ValidationError when tau is not a state within tol, and
    ValueError for a NaN or negative tol.
    """
    d, s = enc.sys_in, _memory_factor(enc, dec, tau, tol)
    if ch.dim_in != d or ch.dim_out != d:
        raise DimensionError(f"channel dims ({ch.dim_in}->{ch.dim_out}) must equal d={d}")

    prep = [kron(np.eye(d), f[:, None]) for f in s.T]
    mid = [kron(k, np.eye(enc.mem_out)) for k in ch.kraus]
    discard = [kron(np.eye(d), basis_vector(b, dec.mem_out)[None, :]) for b in range(dec.mem_out)]

    kraus = [
        t @ b @ m @ a @ p
        for p in prep
        for a in enc.inner.kraus
        for m in mid
        for b in dec.inner.kraus
        for t in discard
    ]
    return channel_from_kraus(kraus, tol)
