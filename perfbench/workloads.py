"""The four workloads: their inputs, one operation each, and its output check.

An operation is the user-visible call being timed; its output check runs
after the timed span. ``run`` takes an optional tracer, so the traced run
records a span around each call into a dephkit module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

from dephkit import (
    NotDephasingRealizationError,
    SuperGram,
    apply_super,
    circuit_oracle,
    decompose_product_qubit,
    gram_from_simulation,
    is_passive_compatible,
    jamiolkowski,
    l1_distance,
    memory_activity_qubit,
    nearest_passive_qubit,
)
from dephkit.linalg import max_abs

import inputs

PARITY_TOL = 1e-9  # Schur action vs circuit oracle
RECON_TOL = 1e-6  # product-decomposition reconstruction and total weight
NMR_ACTIVITY, NMR_ACTIVITY_TOL = 0.625, 5e-4
CLI_TIMEOUT_S = 120

# Runs the CLI the way the installed ``dephkit`` console script does.
CLI_PREFIX = (sys.executable, "-c", "from dephkit.cli import entry; entry()")


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


class Realize:
    """``gram_from_simulation`` on one size class of the fixed triple mix."""

    def __init__(self, d: int, seed: int, blocks: int) -> None:
        self.pool = inputs.realize_pool(d, seed, blocks)
        # The first call at this size on each path: classical memory,
        # general path, and a reject.
        self.warm = [next(t for t in self.pool if t.kind == k) for k in ("diag", "coherent", "non-mio-encoder")]

    def run(self, t: inputs.Triple, tracer=None):
        name = f"superchannels.gram_from_simulation.d{t.d}" + (".reject" if t.expected_check else "")
        with _span(tracer, name):
            try:
                return gram_from_simulation(t.enc, t.dec, t.tau)
            except NotDephasingRealizationError as exc:
                return exc

    def check(self, t: inputs.Triple, result) -> str | None:
        return check_verdict(t, result)


def check_verdict(t: inputs.Triple, result) -> str | None:
    """None if the verdict and output are right, else what is wrong."""
    if t.expected_check is None:
        if not isinstance(result, SuperGram):
            return f"{t.kind} d={t.d}: genuine triple rejected: {result}"
        via_gram = jamiolkowski(apply_super(result, t.probe))
        via_circuit = jamiolkowski(circuit_oracle(t.enc, t.dec, t.tau, t.probe))
        diff = max_abs(via_gram - via_circuit)
        if not diff <= PARITY_TOL:
            return f"{t.kind} d={t.d}: oracle parity {diff:.3e} > {PARITY_TOL:g}"
        return None
    if not isinstance(result, NotDephasingRealizationError) or result.report is None:
        return f"{t.kind} d={t.d}: broken triple not rejected with a report"
    side = {c.name for c in result.report.failed_checks()} & inputs.SIDE_CHECKS
    if side != {t.expected_check}:
        return f"{t.kind} d={t.d}: tripped {sorted(side)}, expected {t.expected_check}"
    return None


class QubitCertify:
    """Activity, nearest passive matrix and its product-decomposition certificate."""

    def __init__(self, seed: int, size: int) -> None:
        self.pool = inputs.qubit_pool(seed, size)
        self.warm = self.pool[:1]  # builds the decomposition dictionary

    def run(self, sg, tracer=None):
        with _span(tracer, "memory.memory_activity_qubit"):
            activity = memory_activity_qubit(sg)
        with _span(tracer, "memory.nearest_passive_qubit"):
            nearest = nearest_passive_qubit(sg)
        with _span(tracer, "memory.decompose_product_qubit"):
            dec = decompose_product_qubit(nearest)
        return activity, nearest, dec

    def check(self, sg, result) -> str | None:
        return check_certificate(sg, *result)


def check_certificate(sg, activity, nearest, dec) -> str | None:
    if not is_passive_compatible(nearest, PARITY_TOL):
        return "nearest passive matrix is not passive-compatible"
    gap = abs(l1_distance(sg.mat, nearest.mat) - activity)
    if not gap <= PARITY_TOL:
        return f"activity differs from the l1 distance to the nearest passive matrix by {gap:.3e}"
    recon = max_abs(dec.reconstruct() - nearest.mat)
    weight = abs(dec.total_weight() - 1.0)
    if not (recon <= RECON_TOL and weight <= RECON_TOL):
        return f"certificate reconstruction {recon:.3e}, weight defect {weight:.3e} > {RECON_TOL:g}"
    return None


class Cli:
    """One ``dephkit`` process per operation over the fixed subcommand mix."""

    def __init__(self, seed: int, tmp: Path) -> None:
        self.pool = inputs.write_cli_fixtures(tmp, seed)
        self.warm = self.pool[:1]

    def run(self, case: inputs.CliCase, tracer=None):
        with _span(tracer, f"cli.{case.label}"):
            return subprocess.run(
                [*CLI_PREFIX, *case.args, "--json"], capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )

    def check(self, case: inputs.CliCase, proc) -> str | None:
        if proc.returncode != case.exit_code:
            return f"{case.label}: exit {proc.returncode}, expected {case.exit_code}: {proc.stderr.strip()[-200:]}"
        if case.verdict is None:
            return None
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return f"{case.label}: stdout is not a JSON report"
        if report.get("verdict") != case.verdict:
            return f"{case.label}: verdict {report.get('verdict')!r}, expected {case.verdict!r}"
        if case.label == "demo-nmr" and not abs(report["value"] - NMR_ACTIVITY) <= NMR_ACTIVITY_TOL:
            return f"demo-nmr: activity {report['value']} != {NMR_ACTIVITY} +- {NMR_ACTIVITY_TOL}"
        if case.out is not None:
            try:
                with open(case.out, encoding="utf-8") as fh:
                    json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                return f"{case.label}: --out artifact unreadable: {exc}"
            os.remove(case.out)  # the next call must write it afresh
        return None


WORKLOADS = ("realize-small", "realize-large", "qubit-certify", "cli")


def build(name: str, seed: int, tmp: Path):
    if name == "realize-small":
        return Realize(3, seed, blocks=4)
    if name == "realize-large":
        return Realize(4, seed, blocks=1)
    if name == "qubit-certify":
        return QubitCertify(seed, size=64)
    if name == "cli":
        return Cli(seed, tmp)
    raise ValueError(f"unknown workload {name!r}")
