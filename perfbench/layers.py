"""Layer sweep of the traced run: one timed pass over every dephkit module.

Each call into a module's public function is wrapped in a span named
``<module>.<function>[.d<N>]``. Functions that take microseconds are timed in
batches of ``BATCH`` calls per span, so the span's own cost stays small
beside them. The stage functions of ``gram_from_simulation`` are called
directly on the same triples, which gives the stage breakdown at d = 3, 4, 5
without instrumenting the library.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from dephkit import (
    NotDephasingRealizationError,
    affine_from_channel,
    apply_super,
    channel_from_jamiolkowski,
    circuit_oracle,
    decompose_product_qubit,
    density_matrix,
    gram_action_on_affine,
    gram_from_controlled_unitaries,
    gram_from_simulation,
    jamiolkowski,
    kron,
    memory_activity_qubit,
    min_eig_hermitian,
    nearest_passive_qubit,
    partial_trace,
    ppt_min_eig,
    random_channel,
    random_controlled_family,
    random_super_gram,
    validate_super_gram,
    verify_dephasing_realization,
    verify_simulation_consistency,
)
from dephkit import io
from dephkit.superchannels import simulation_tensor
from dephkit.linalg import basis_matrix, max_abs

import inputs
import workloads

BATCH = 50  # calls per span for microsecond-scale functions
SUBPROCESS_TIMEOUT_S = 120

FIRST_CALL_SNIPPET = """
import json, time
from dephkit import decompose_product_qubit, nearest_passive_qubit, nmr_experimental_gram
from dephkit.memory import NMR_VALIDATION_TOL
sg = nearest_passive_qubit(nmr_experimental_gram(), tol=NMR_VALIDATION_TOL)
t = time.perf_counter()
decompose_product_qubit(sg)
print(json.dumps({"first_call_ms": (time.perf_counter() - t) * 1e3}))
"""


class Sweep:
    """Runs the sweep into a tracer and turns its spans into per-layer metrics."""

    def __init__(self, tracer, seed: int, tmp: Path) -> None:
        self.tr = tracer
        self.seed = seed
        self.tmp = tmp
        self.rng = np.random.default_rng([seed, 11])
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    # -- helpers -------------------------------------------------------------

    def _verdict(self, problem: str | None, rec: dict | None = None) -> None:
        """Count one checked result; a wrong one also marks the span that made it."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)
            if rec is not None:
                rec["failed"] = True

    def _batch(self, name: str, fn, *args) -> None:
        with self.tr.span(name) as rec:
            rec["calls"] = BATCH
            for _ in range(BATCH):
                fn(*args)

    def _per_call(self, name: str, reps: int, fn, *args) -> None:
        for _ in range(reps):
            self._batch(name, fn, *args)

    def _p50(self, metric: str, span: str, unit: str) -> None:
        """Median time per call of the spans named ``span``."""
        per_call = [
            (s["end"] - s["start"]) / s["calls"] for s in self.tr.spans if s["name"] == span
        ]
        scale = {"ms": 1e3, "us": 1e6}[unit]
        self.metrics[metric] = (statistics.median(per_call) * scale, unit)

    def _child_ms(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t = time.perf_counter()
        proc = subprocess.run(args, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        return (time.perf_counter() - t) * 1e3, proc

    # -- layers --------------------------------------------------------------

    def superchannels(self) -> None:
        """Stage breakdown of gram_from_simulation; genuine and rejected triples."""
        tr = self.tr
        plan = {
            3: inputs.realize_pool(3, self.seed, 1),
            4: inputs.realize_pool(4, self.seed, 1)[:8],  # 6 genuine, 2 broken
            5: [inputs.make_triple(k, 5, self.rng) for k in ("diag", "coherent")],
        }
        for d, triples in plan.items():
            for t in triples:
                if t.expected_check is not None:
                    with tr.span(f"superchannels.gram_from_simulation.d{d}.reject") as rec:
                        try:
                            result = gram_from_simulation(t.enc, t.dec, t.tau)
                        except NotDephasingRealizationError as exc:
                            result = exc
                    self._verdict(workloads.check_verdict(t, result), rec)
                    continue
                with tr.span(f"superchannels.gram_from_simulation.d{d}") as rec:
                    sg = gram_from_simulation(t.enc, t.dec, t.tau)
                with tr.span(f"superchannels.simulation_tensor.d{d}"):
                    simulation_tensor(t.enc, t.dec, t.tau)
                with tr.span(f"superchannels.verify_dephasing_realization.d{d}"):
                    report = verify_dephasing_realization(t.enc, t.dec, t.tau)
                with tr.span(f"superchannels.verify_simulation_consistency.d{d}"):
                    audit = verify_simulation_consistency(t.enc, t.dec, t.tau)
                problem = None if report.passed and audit.passed else f"stage checks failed on {t.kind} d={d}"
                if d < 5:
                    with tr.span(f"superchannels.circuit_oracle.d{d}"):
                        oracle = circuit_oracle(t.enc, t.dec, t.tau, t.probe)
                    diff = max_abs(jamiolkowski(apply_super(sg, t.probe)) - jamiolkowski(oracle))
                    if not diff <= workloads.PARITY_TOL:
                        problem = f"oracle parity {diff:.3e} on {t.kind} d={d}"
                self._verdict(problem, rec)
        sg3 = gram_from_simulation(plan[3][0].enc, plan[3][0].dec, plan[3][0].tau)
        self._per_call("superchannels.apply_super.d3", 5, apply_super, sg3, plan[3][0].probe)
        for d in (2, 3, 4):
            mat = random_super_gram(d, int(self.rng.integers(2**31))).mat
            self._per_call(f"superchannels.validate_super_gram.d{d}", 5, validate_super_gram, mat, d)
        pre, post = (random_controlled_family(3, int(self.rng.integers(2**31))) for _ in range(2))
        self._per_call("superchannels.gram_from_controlled_unitaries.d3", 5, gram_from_controlled_unitaries, pre, post)

        for d in (3, 4, 5):
            for fn in ("gram_from_simulation", "verify_dephasing_realization",
                       "verify_simulation_consistency", "simulation_tensor"):
                self._p50(f"superchannels.{fn}.d{d}.p50_ms", f"superchannels.{fn}.d{d}", "ms")
        for d in (3, 4):
            self._p50(f"superchannels.gram_from_simulation.d{d}.reject_p50_ms",
                      f"superchannels.gram_from_simulation.d{d}.reject", "ms")
            self._p50(f"superchannels.circuit_oracle.d{d}.p50_ms", f"superchannels.circuit_oracle.d{d}", "ms")
        self._p50("superchannels.apply_super.d3.p50_us", "superchannels.apply_super.d3", "us")
        for d in (2, 3, 4):
            self._p50(f"superchannels.validate_super_gram.d{d}.p50_us", f"superchannels.validate_super_gram.d{d}", "us")
        self._p50("superchannels.gram_from_controlled_unitaries.d3.p50_us",
                  "superchannels.gram_from_controlled_unitaries.d3", "us")

    def memory(self) -> None:
        tr = self.tr
        terms, residuals = [], []
        for sg in inputs.qubit_pool(self.seed, 24):
            self._batch("memory.memory_activity_qubit", memory_activity_qubit, sg)
            self._batch("memory.nearest_passive_qubit", nearest_passive_qubit, sg)
            self._batch("memory.ppt_min_eig", ppt_min_eig, sg)
            activity, nearest = memory_activity_qubit(sg), nearest_passive_qubit(sg)
            with tr.span("memory.decompose_product_qubit") as rec:
                dec = decompose_product_qubit(nearest)
            terms.append(len(dec.terms))
            residuals.append(dec.residual)
            self._verdict(workloads.check_certificate(sg, activity, nearest, dec), rec)
        self._p50("memory.decompose_product_qubit.p50_ms", "memory.decompose_product_qubit", "ms")
        self.metrics["memory.decompose_product_qubit.terms_mean"] = (statistics.fmean(terms), "count")
        self.metrics["memory.decompose_product_qubit.residual_max"] = (max(residuals), "1")
        for fn in ("memory_activity_qubit", "nearest_passive_qubit", "ppt_min_eig"):
            self._p50(f"memory.{fn}.p50_us", f"memory.{fn}", "us")
        # First call in a fresh process: pays the dictionary build.
        wall_ms, proc = self._child_ms([sys.executable, "-c", FIRST_CALL_SNIPPET])
        self._verdict(None if proc.returncode == 0 else f"first-call probe exited {proc.returncode}")
        # A failed probe is counted above; its wall time stands in for the value.
        first = json.loads(proc.stdout)["first_call_ms"] if proc.returncode == 0 else wall_ms
        self.metrics["memory.decompose_product_qubit.first_call_ms"] = (first, "ms")

    def channels_linalg_bloch(self) -> None:
        seed = int(self.rng.integers(2**31))
        ch3 = random_channel(3, 2, seed)
        jam3 = jamiolkowski(ch3)
        tau9 = inputs.realize_pool(3, self.seed, 1)[1].tau  # coherent memory, 9 x 9
        self._per_call("channels.jamiolkowski", 5, jamiolkowski, ch3)
        self._per_call("channels.channel_from_jamiolkowski", 5, channel_from_jamiolkowski, jam3)
        self._per_call("channels.density_matrix", 5, density_matrix, tau9)
        for fn in ("jamiolkowski", "channel_from_jamiolkowski", "density_matrix"):
            self._p50(f"channels.{fn}.p50_us", f"channels.{fn}", "us")

        # Operand shapes of the d=3 verifier: |m><n| (x) tau on 3 x 9.
        operand = kron(basis_matrix(0, 1, 3), tau9)
        self._per_call("linalg.kron.d3", 5, kron, basis_matrix(0, 1, 3), tau9)
        self._per_call("linalg.partial_trace.d3", 5, partial_trace, operand, (3, 9), "second")
        for d in (3, 4):
            gram = random_super_gram(d, seed).mat
            self._per_call(f"linalg.min_eig_hermitian.d{d}", 5, min_eig_hermitian, gram)
        for name in ("kron.d3", "partial_trace.d3", "min_eig_hermitian.d3", "min_eig_hermitian.d4"):
            self._p50(f"linalg.{name}.p50_us", f"linalg.{name}", "us")

        ch2 = random_channel(2, 2, seed)
        sg2 = random_super_gram(2, seed)
        affine = affine_from_channel(ch2)
        self._per_call("bloch.affine_from_channel", 5, affine_from_channel, ch2)
        self._per_call("bloch.gram_action_on_affine", 5, gram_action_on_affine, sg2, affine)
        for fn in ("affine_from_channel", "gram_action_on_affine"):
            self._p50(f"bloch.{fn}.p50_us", f"bloch.{fn}", "us")

    def files(self) -> None:
        tr = self.tr
        for d in (3, 4):
            t = inputs.realize_pool(d, self.seed, 1)[0]
            path = self.tmp / f"sweep_enc_d{d}.json"
            io.write_bipartite(path, t.enc)
            for _ in range(5):
                with tr.span(f"io.read_bipartite.d{d}"):
                    io.read_bipartite(path)
            self._p50(f"io.read_bipartite.d{d}.p50_ms", f"io.read_bipartite.d{d}", "ms")
        mat = random_super_gram(4, self.seed).mat
        path = self.tmp / "sweep_gram_d4.json"
        for _ in range(20):
            with tr.span("io.write_matrix"):
                io.write_matrix(path, mat)
            with tr.span("io.read_matrix") as rec:
                back = io.read_matrix(path)
            with tr.span("io.file_digest"):
                io.file_digest(path)
            self._verdict(None if np.array_equal(back, mat) else "matrix did not re-read bit-identically", rec)
        for fn in ("read_matrix", "write_matrix", "file_digest"):
            self._p50(f"io.{fn}.p50_ms", f"io.{fn}", "ms")

    def cli(self, reps: int) -> None:
        """Interpreter and import costs, and each subcommand of the cli mix."""
        py = sys.executable
        bare = statistics.median(self._child_ms([py, "-c", "pass"])[0] for _ in range(5))
        imported = statistics.median(self._child_ms([py, "-c", "import dephkit.cli"])[0] for _ in range(3))
        self.metrics["cli.interpreter_ms"] = (bare, "ms")
        self.metrics["cli.import_ms"] = (imported - bare, "ms")
        _, proc = self._child_ms([py, "-X", "importtime", "-c", "import dephkit.cli"])
        scipy_us, memory_us = importtime_breakdown(proc.stderr)
        self.metrics["cli.import.scipy_ms"] = (scipy_us / 1e3, "ms")
        self.metrics["cli.import.dephkit.memory_ms"] = (memory_us / 1e3, "ms")

        mix = workloads.Cli(self.seed, self.tmp)
        mismatch = 0
        for _ in range(reps):
            for case in mix.pool:
                proc = mix.run(case, self.tr)
                mismatch += proc.returncode != case.exit_code
                self._verdict(mix.check(case, proc), self.tr.spans[-1])
        self.metrics["cli.exit_code_mismatch"] = (mismatch, "count")
        for case in mix.pool:
            self._p50(f"cli.{case.label}.p50_ms", f"cli.{case.label}", "ms")

    def run(self, cli_reps: int = 2) -> dict[str, tuple[float, str]]:
        self.superchannels()
        self.memory()
        self.channels_linalg_bloch()
        self.files()
        self.cli(cli_reps)
        return self.metrics


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def importtime_breakdown(stderr: str) -> tuple[float, float]:
    """(cumulative time of the outermost scipy imports, of dephkit.memory), in us.

    ``-X importtime`` prints each module after the modules it imports, indented
    by nesting depth, so read in reverse the lines come parent first.
    """
    rows = [m for m in map(_IMPORTTIME.match, stderr.splitlines()) if m]
    scipy_cum = memory_cum = 0.0
    stack: list[tuple[int, str]] = []  # (depth, name) of the enclosing imports
    for m in reversed(rows):
        cum_us, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".", 1)[0] == "scipy"
        if is_scipy and not any(n.split(".", 1)[0] == "scipy" for _, n in stack):
            scipy_cum += cum_us
        if name == "dephkit.memory":
            memory_cum = cum_us
        stack.append((depth, name))
    return scipy_cum, memory_cum
