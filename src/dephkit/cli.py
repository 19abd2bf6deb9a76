"""Command-line front end.

Subcommands wrap the library operations over a JSON wire format. Each
command returns a Report of ``Check`` records, which main prints. Exit codes
are a stable contract: 0 for pass/value results, 1 for domain failures
(a failed check, or an error from the library), 2 for I/O or parse failures.
The DEPHKIT_TOL environment variable overrides the default tolerance; a
tolerance that is not a finite nonnegative number is a parse failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import bloch, channels, io, memory, superchannels
from .errors import DephkitError, NotDephasingRealizationError, ValidationError
from .io import FileFormatError
from .linalg import DEFAULT_TOL, Check, max_abs, measure

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2


def _tolerance(text: str) -> float:
    """argparse type of --tol, also applied to the DEPHKIT_TOL default."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan  # refused below with the other non-finite values
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite nonnegative number, got {text!r}")
    return tol


@dataclass
class Report:
    """Human- and machine-readable outcome of one command: its checks, in the order made.

    A check with a threshold decides the verdict; one without is a fact.
    ``verdict`` is "fail" once any check fails, and otherwise ``kind``:
    "pass" for a command that checks its input, "value" for one that
    computes a value.
    """

    kind: str = "pass"
    checks: list[Check] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)
    value: float | None = None

    @property
    def verdict(self) -> str:
        return "fail" if any(not c.passed for c in self.checks) else self.kind

    def add(self, name: str, value, threshold: float | None = None) -> None:
        self.checks.append(Check(name, value, threshold))

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "value": self.value,
            "details": [
                {"check": c.name, "value": c.value, "threshold": c.threshold, "detail": c.detail}
                for c in self.checks
            ],
            "provenance": self.provenance,
        }

    def render(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.value is not None:
            lines.append(f"value: {self.value!r}")
        for c in self.checks:
            val = f"{c.value:.12g}" if isinstance(c.value, float) else str(c.value)
            thr = "" if c.threshold is None else f"  (threshold {c.threshold:g})"
            detail = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"  {c.name}: {val}{thr}{detail}")
        for name, digest in self.provenance.items():
            lines.append(f"  input {name}: sha256 {digest[:16]}...")
        return "\n".join(lines)


def _provenance(*paths) -> dict[str, str]:
    return {str(p): io.file_digest(p) for p in paths}


def _side_to_d(mat) -> int:
    side = mat.shape[0]
    d = round(side**0.5)
    if mat.shape != (side, side) or d * d != side or d < 2:
        raise FileFormatError(f"matrix of shape {mat.shape} is not d^2 x d^2 for a system dimension d >= 2")
    return d


def _read_super_gram(path, tol: float) -> superchannels.SuperGram:
    mat = io.read_matrix(path)
    return superchannels.validate_super_gram(mat, _side_to_d(mat), tol=tol)


def _realize(report: Report, sg: superchannels.SuperGram, out, tol: float) -> None:
    """Realize sg by controlled unitaries, add the round trip at tol and write the pair to out; add a refusal's record."""
    try:
        pre, post = superchannels.realize_super_gram(sg, tol)
        recon = superchannels.gram_from_controlled_unitaries(pre, post, tol=tol)
    except ValidationError as exc:
        report.checks.append(exc.record)
        return
    report.add("controlled-unitary round-trip residual", max_abs(recon.mat - sg.mat), tol)
    if out:
        io.write_family_pair(out, pre, post)


def cmd_gram_validate(args) -> Report:
    mat = io.read_matrix(args.file)
    d = _side_to_d(mat)  # the block check needs a side of d^2
    checks = measure(mat, superchannels.SUPER_GRAM_CHECKS, args.tol)
    report = Report(checks=list(checks), provenance=_provenance(args.file))
    if args.out and report.verdict == "pass":  # the checks just made are those of validate_super_gram
        _realize(report, superchannels.SuperGram(d, mat, checks), args.out, args.tol)
    return report


def cmd_gram_from_unitaries(args) -> Report:
    report = Report(provenance=_provenance(args.file))
    try:
        pre, post = io.read_family_pair(args.file, tol=args.tol)
        sg = superchannels.gram_from_controlled_unitaries(pre, post, tol=args.tol)
    except ValidationError as exc:
        report.checks.append(exc.record)
        return report
    report.checks += sg.checks
    if args.out:
        io.write_matrix(args.out, sg.mat)
    return report


def _read_triple(args):
    """The encoder, decoder and memory state of a realization command; the library checks tau."""
    enc = io.read_bipartite(args.enc, tol=args.tol)
    dec = io.read_bipartite(args.dec, tol=args.tol)
    return enc, dec, io.read_matrix(args.tau)


def cmd_gram_from_simulation(args) -> Report:
    enc, dec, tau = _read_triple(args)
    report = Report(provenance=_provenance(args.enc, args.dec, args.tau))
    try:
        sg = superchannels.gram_from_simulation(enc, dec, tau, tol=args.tol)
    except NotDephasingRealizationError as exc:
        report.checks += exc.report.failed_checks()
        return report
    report.checks += sg.checks
    if args.out:
        io.write_matrix(args.out, sg.mat)
    return report


def cmd_apply(args) -> Report:
    ch = io.read_channel(args.channel, tol=args.tol)
    sg = _read_super_gram(args.gram, args.tol)
    out_ch = superchannels.apply_super(sg, ch, tol=args.tol)
    residual = max_abs(channels.classical_action(out_ch) - channels.classical_action(ch))
    report = Report(provenance=_provenance(args.channel, args.gram))
    report.add("classical action invariance residual", residual, args.tol)
    report.add("coherence generating power before", channels.coherence_generating_power(ch))
    report.add("coherence generating power after", channels.coherence_generating_power(out_ch))
    if args.out:
        io.write_matrix(args.out, channels.jamiolkowski(out_ch))
    return report


def cmd_verify_realization(args) -> Report:
    enc, dec, tau = _read_triple(args)
    result = superchannels.verify_dephasing_realization(enc, dec, tau, tol=args.tol)
    if result.passed and args.out:
        io.write_matrix(args.out, result.gram_entries)
    return Report(checks=list(result.checks), provenance=_provenance(args.enc, args.dec, args.tau))


def cmd_memory_activity(args) -> Report:
    sg = _read_super_gram(args.file, args.tol)
    activity = memory.memory_activity_qubit(sg)
    report = Report(kind="value", value=activity, provenance=_provenance(args.file))
    report.add("memory activity (l1 distance to the passive set)", activity)
    report.add("passive compatible (constant block diagonals)", memory.is_passive_compatible(sg, args.tol))
    if args.out:
        nearest = memory.nearest_passive_qubit(sg, tol=args.tol)
        io.write_matrix(args.out, nearest.mat)
        report.add("nearest passive matrix distance", memory.l1_distance(sg.mat, nearest.mat))
    return report


def cmd_memory_decompose(args) -> Report:
    sg = _read_super_gram(args.file, args.tol)
    dec = memory.decompose_product_qubit(sg, tol=args.tol)
    report = Report(provenance=_provenance(args.file))
    report.add("reconstruction residual (product mixture)", dec.residual, args.tol)
    report.add("term count", len(dec.terms))
    report.add("total weight", dec.total_weight(), None)
    if args.out:
        io.write_decomposition(args.out, dec)
    return report


def cmd_ppt(args) -> Report:
    mat = io.read_matrix(args.file)
    dims = tuple(args.dims) if args.dims else (_side_to_d(mat),) * 2
    if min(dims) < 1 or mat.shape != (dims[0] * dims[1],) * 2:
        raise FileFormatError(f"--dims {dims} needs factors >= 1 and a square side of their product, got {mat.shape}")
    value = memory.ppt_min_eig(mat, dims, tol=args.tol)
    report = Report(kind="value", value=value, provenance=_provenance(args.file))
    report.add("partial transpose smallest eigenvalue (separability test)", value)
    report.add("entangled (negative certifies)", bool(value < -args.tol))
    return report


def cmd_family(args) -> Report:
    sg = memory.family_gram(args.alpha, args.beta, tol=args.tol)
    report = Report()
    report.add("alpha", str(args.alpha))
    report.add("beta", str(args.beta))
    if args.ppt:
        measured = memory.ppt_min_eig(sg, tol=args.tol)
        closed = memory.family_ppt_closed_form(args.alpha, args.beta, tol=args.tol)
        report.add("partial transpose smallest eigenvalue", measured)
        report.add("closed form 1 - sqrt(|a|^2+|b|^2)", closed)
        report.add("closed-form residual", abs(measured - closed), args.tol)
    if args.realize:
        _realize(report, sg, args.out, args.tol)
    elif args.out:
        io.write_matrix(args.out, sg.mat)
    return report


def cmd_bloch_affine(args) -> Report:
    ch = io.read_channel(args.channel, tol=args.tol)
    aff = bloch.affine_from_channel(ch)
    report = Report(provenance=_provenance(args.channel))
    report.add("distortion matrix rows", [[round(x, 12) for x in row] for row in aff.lam.tolist()])
    report.add("translation vector", [round(x, 12) for x in aff.t.tolist()])
    report.add("distortion is a contraction", aff.is_contraction(args.tol))
    if args.out:
        io.write_affine(args.out, aff)
    return report


def cmd_demo_nmr(args) -> Report:
    sg = memory.nmr_experimental_gram()
    activity = memory.memory_activity_qubit(sg)
    report = Report(kind="value", checks=list(sg.checks), value=activity)
    report.add("memory activity (l1 distance to the passive set)", activity)
    report.add("passive compatible (constant block diagonals)", memory.is_passive_compatible(sg, args.tol))
    nearest = memory.nearest_passive_qubit(sg, tol=memory.NMR_VALIDATION_TOL)
    report.add("distance to nearest passive matrix", memory.l1_distance(sg.mat, nearest.mat))
    if args.out:
        io.write_matrix(args.out, sg.mat)
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephkit",
        description="Dephasing superchannels as Gram matrices: validation, simulation, memory analysis.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=_tolerance,
        default=os.environ.get("DEPHKIT_TOL", str(DEFAULT_TOL)),
        help="numerical tolerance, finite and >= 0 (default: %(default)s, from $DEPHKIT_TOL when set)",
    )
    common.add_argument("--json", dest="as_json", action="store_true", help="machine-readable report")
    writes = argparse.ArgumentParser(add_help=False)  # every subcommand with an artifact to write
    writes.add_argument("--out", type=Path, default=None, help="write the primary artifact here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram-validate", parents=[common, writes], help="check superchannel Gram invariants (--out: a realizing circuit)")
    p.add_argument("file", type=Path)
    p.set_defaults(func=cmd_gram_validate)

    p = sub.add_parser("gram-from-unitaries", parents=[common, writes], help="Gram matrix of a controlled-unitary circuit")
    p.add_argument("file", type=Path, help="JSON with d, pre and post unitary lists")
    p.set_defaults(func=cmd_gram_from_unitaries)

    p = sub.add_parser("gram-from-simulation", parents=[common, writes], help="extract the Gram matrix of an encode/decode simulation")
    p.add_argument("enc", type=Path)
    p.add_argument("dec", type=Path)
    p.add_argument("tau", type=Path, help="initial memory state matrix")
    p.set_defaults(func=cmd_gram_from_simulation)

    p = sub.add_parser("apply", parents=[common, writes], help="transform a channel by a dephasing superchannel")
    p.add_argument("channel", type=Path)
    p.add_argument("gram", type=Path)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("verify-realization", parents=[common, writes], help="check that encode/decode maps realize a dephasing superchannel")
    p.add_argument("enc", type=Path)
    p.add_argument("dec", type=Path)
    p.add_argument("tau", type=Path)
    p.set_defaults(func=cmd_verify_realization)

    p = sub.add_parser("memory-activity", parents=[common, writes], help="active-memory requirement of a qubit superchannel")
    p.add_argument("file", type=Path)
    p.set_defaults(func=cmd_memory_activity)

    p = sub.add_parser("memory-decompose", parents=[common, writes], help="product decomposition of a passive-compatible qubit superchannel")
    p.add_argument("file", type=Path)
    p.set_defaults(func=cmd_memory_decompose)

    p = sub.add_parser("ppt", parents=[common], help="smallest partial-transpose eigenvalue")
    p.add_argument("file", type=Path)
    p.add_argument("--dims", type=int, nargs=2, default=None, help="bipartite factor dimensions")
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("family", parents=[common, writes], help="qutrit example family and its realization")
    p.add_argument("--alpha", type=complex, required=True)
    p.add_argument("--beta", type=complex, required=True)
    p.add_argument("--ppt", action="store_true", help="report the partial-transpose eigenvalue check")
    p.add_argument("--realize", action="store_true", help="build the controlled-unitary realization")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("bloch-affine", parents=[common, writes], help="affine Bloch representation of a qubit channel")
    p.add_argument("channel", type=Path)
    p.set_defaults(func=cmd_bloch_affine)

    p = sub.add_parser("demo-nmr", parents=[common, writes], help="analyze the bundled experimental matrix")
    p.set_defaults(func=cmd_demo_nmr)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
        print(json.dumps(report.to_json(), indent=1) if args.as_json else report.render(), flush=True)
    except (FileFormatError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # stdout is closed: point it at devnull so the flush at exit stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DephkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_DOMAIN if report.verdict == "fail" else EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
