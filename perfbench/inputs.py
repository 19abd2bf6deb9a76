"""Seeded inputs for every workload: the same seed gives the same inputs.

The library only ever sees what these functions build. Realization triples
come in a fixed mix (see ``realize_pool``); the three broken kinds are the
acceptance suite's violated fixtures generalized from d=2 to any d, each with
the realization check it must trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dephkit import (
    bipartite_channel,
    controlled_unitary_channel,
    controlled_unitary_family,
    kron,
    nearest_passive_qubit,
    random_channel,
    random_controlled_family,
    random_super_gram,
)
from dephkit import io

# The two checks that decide which side of a broken realization is at fault.
# "marginal-consistency" and "gram-structure" follow from either and are not
# part of a broken kind's signature.
SIDE_CHECKS = frozenset({"encoder-dephasing", "decoder-dephasing"})

# One block of the realize mix: 9 genuine triples (5 with a diagonal memory,
# which takes the classical-memory contraction, 4 with a coherent pure memory,
# which takes the general path; "2" marks Kraus rank 2) and 3 broken ones, one
# of each violation kind.
REALIZE_BLOCK = (
    "diag", "coherent", "diag2", "non-mio-encoder",
    "coherent", "diag", "coherent2", "coherence-consuming-decoder",
    "diag", "coherent", "diag2", "wrong-memory-wiring",
)
EXPECTED_CHECK = {
    "non-mio-encoder": "encoder-dephasing",
    "coherence-consuming-decoder": "decoder-dephasing",
    "wrong-memory-wiring": "decoder-dephasing",
}


@dataclass(frozen=True)
class Triple:
    """An encode/decode/memory triple with the verdict it must get."""

    kind: str
    d: int
    enc: object
    dec: object
    tau: np.ndarray
    probe: object  # channel for the oracle-parity check of a genuine triple

    @property
    def expected_check(self) -> str | None:
        return EXPECTED_CHECK.get(self.kind)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _fourier(d: int) -> np.ndarray:
    w = np.exp(2j * np.pi / d)
    return np.array([[w ** (i * j) for j in range(d)] for i in range(d)]) / np.sqrt(d)


def _swap(n: int, a: int, b: int) -> np.ndarray:
    p = np.eye(n, dtype=complex)
    p[[a, b]] = p[[b, a]]
    return p


def _controlled(d: int, rng: np.random.Generator, rank: int):
    """Genuine encoder or decoder: a mixture of ``rank`` controlled unitaries."""
    if rank == 1:
        return controlled_unitary_channel(random_controlled_family(d, _seed(rng)))
    p = rng.dirichlet(np.ones(rank))
    kraus = [
        np.sqrt(w) * controlled_unitary_channel(random_controlled_family(d, _seed(rng))).inner.kraus[0]
        for w in p
    ]
    return bipartite_channel(kraus, (d, d * d, d, d * d))


def _diag_memory(dim: int, rng: np.random.Generator) -> np.ndarray:
    return np.diag(rng.dirichlet(np.ones(dim))).astype(complex)


def _pure_memory(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _ground_memory(dim: int) -> np.ndarray:
    tau = np.zeros((dim, dim), dtype=complex)
    tau[0, 0] = 1.0
    return tau


def broken_triple(kind: str, d: int, rng: np.random.Generator):
    """(enc, dec, tau) of one violation kind, generalized from the d=2 fixtures."""
    mem = d * d
    dims = (d, mem, d, mem)
    tau = _ground_memory(mem)
    fourier = bipartite_channel([kron(_fourier(d), np.eye(mem))], dims)
    if kind == "non-mio-encoder":
        return fourier, _controlled(d, rng, 1), tau
    if kind == "coherence-consuming-decoder":
        return _controlled(d, rng, 1), fourier, tau
    if kind == "wrong-memory-wiring":
        # The encoder stores the input level in the memory; the decoder shifts
        # the system exactly on the branch fed by level m=1.
        store = controlled_unitary_channel(
            controlled_unitary_family([np.eye(mem, dtype=complex)] + [_swap(mem, 0, m) for m in range(1, d)])
        )
        shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        flip = np.zeros((d * mem, d * mem), dtype=complex)
        for theta in range(mem):
            marker = np.zeros((mem, mem))
            marker[theta, theta] = 1
            flip += kron(shift if theta == 1 else np.eye(d), marker)
        return store, bipartite_channel([flip], dims), tau
    raise ValueError(f"unknown broken kind {kind!r}")


def make_triple(kind: str, d: int, rng: np.random.Generator) -> Triple:
    mem = d * d
    if kind in EXPECTED_CHECK:
        enc, dec, tau = broken_triple(kind, d, rng)
    else:
        rank = 2 if kind.endswith("2") else 1
        enc, dec = _controlled(d, rng, rank), _controlled(d, rng, rank)
        tau = _diag_memory(mem, rng) if kind.startswith("diag") else _pure_memory(mem, rng)
    return Triple(kind, d, enc, dec, tau, random_channel(d, 2, _seed(rng)))


def realize_pool(d: int, seed: int, blocks: int) -> list[Triple]:
    """``blocks`` copies of the fixed mix, each with fresh seeded triples."""
    rng = np.random.default_rng([seed, d])
    return [make_triple(kind, d, rng) for _ in range(blocks) for kind in REALIZE_BLOCK]


def qubit_pool(seed: int, size: int) -> list:
    """Seeded qubit superchannels drawn with ``random_super_gram(2, .)``."""
    rng = np.random.default_rng([seed, 2])
    return [random_super_gram(2, _seed(rng)) for _ in range(size)]


@dataclass(frozen=True)
class CliCase:
    """One dephkit invocation with the exit code and JSON verdict it must give."""

    label: str
    args: tuple[str, ...]
    exit_code: int
    verdict: str | None  # None where no JSON report is printed (exit 2)
    out: str | None = None  # --out artifact that must parse as JSON


def _complex_arg(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}j"


def write_cli_fixtures(root: Path, seed: int) -> list[CliCase]:
    """Write the fixture files of the cli mix under ``root`` and list the mix."""
    rng = np.random.default_rng([seed, 7])
    f = {name: str(root / f"{name}.json") for name in (
        "gram", "passive", "invalid_gram", "malformed", "channel", "families",
    )}
    sg = random_super_gram(2, _seed(rng))
    io.write_matrix(f["gram"], sg.mat)
    io.write_matrix(f["passive"], nearest_passive_qubit(sg).mat)
    invalid = sg.mat.copy()
    invalid[0, 0] = 1.5  # breaks the unit diagonal
    io.write_matrix(f["invalid_gram"], invalid)
    Path(f["malformed"]).write_text('{"rows": 4, "cols": 4, "data": [[1.0, 0.0], ', encoding="utf-8")
    io.write_channel(f["channel"], random_channel(2, 2, _seed(rng)))
    io.write_family_pair(
        f["families"], random_controlled_family(2, _seed(rng)), random_controlled_family(2, _seed(rng))
    )
    triples = {}
    for name, kind, d in (("d2", "coherent", 2), ("d3", "coherent", 3), ("broken", "wrong-memory-wiring", 2)):
        t = make_triple(kind, d, rng)
        paths = tuple(str(root / f"{part}_{name}.json") for part in ("enc", "dec", "tau"))
        io.write_bipartite(paths[0], t.enc)
        io.write_bipartite(paths[1], t.dec)
        io.write_matrix(paths[2], t.tau)
        triples[name] = paths
    alpha = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    beta = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())

    def out(name: str) -> str:
        return str(root / f"out_{name}.json")

    return [
        CliCase("demo-nmr", ("demo-nmr",), 0, "value"),
        CliCase("gram-validate", ("gram-validate", f["gram"]), 0, "pass"),
        CliCase("memory-activity", ("memory-activity", f["gram"], "--out", out("nearest")), 0, "value", out("nearest")),
        CliCase("memory-decompose", ("memory-decompose", f["passive"], "--out", out("decomp")), 0, "pass", out("decomp")),
        CliCase("ppt", ("ppt", f["gram"]), 0, "value"),
        CliCase(
            "family",
            ("family", f"--alpha={_complex_arg(alpha)}", f"--beta={_complex_arg(beta)}", "--ppt", "--realize"),
            0,
            "pass",
        ),
        CliCase("apply", ("apply", f["channel"], f["gram"], "--out", out("jam")), 0, "pass", out("jam")),
        CliCase("bloch-affine", ("bloch-affine", f["channel"]), 0, "pass"),
        CliCase("gram-from-unitaries", ("gram-from-unitaries", f["families"]), 0, "pass"),
        CliCase("gram-from-simulation.d2", ("gram-from-simulation", *triples["d2"]), 0, "pass"),
        CliCase("gram-from-simulation.d3", ("gram-from-simulation", *triples["d3"]), 0, "pass"),
        CliCase("verify-realization.d2", ("verify-realization", *triples["d2"]), 0, "pass"),
        CliCase("verify-realization.d3", ("verify-realization", *triples["d3"]), 0, "pass"),
        CliCase("verify-realization.broken", ("verify-realization", *triples["broken"]), 1, "fail"),
        CliCase("gram-validate.invalid", ("gram-validate", f["invalid_gram"]), 1, "fail"),
        CliCase("gram-validate.malformed", ("gram-validate", f["malformed"]), 2, None),
    ]
