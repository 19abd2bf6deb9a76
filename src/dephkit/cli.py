"""Command-line front end.

Subcommands wrap the library operations over a JSON wire format. Exit codes
are a stable contract: 0 for pass/value results, 1 for domain failures
(invalid matrices, failed verifications), 2 for I/O or parse failures.
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
from .linalg import DEFAULT_TOL, max_abs, measure, violation

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
    """Human- and machine-readable outcome of one command."""

    verdict: str  # "pass" | "fail" | "value"
    details: list[dict] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)
    value: float | None = None

    def add(self, check: str, value, threshold=None) -> None:
        self.details.append({"check": check, "value": value, "threshold": threshold})

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "value": self.value,
            "details": self.details,
            "provenance": self.provenance,
        }

    def render(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.value is not None:
            lines.append(f"value: {self.value!r}")
        for det in self.details:
            thr = "" if det["threshold"] is None else f"  (threshold {det['threshold']:g})"
            val = det["value"]
            val_s = f"{val:.12g}" if isinstance(val, float) else str(val)
            lines.append(f"  {det['check']}: {val_s}{thr}")
        for name, digest in self.provenance.items():
            lines.append(f"  input {name}: sha256 {digest[:16]}...")
        return "\n".join(lines)


def _emit(report: Report, args) -> None:
    if args.as_json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(report.render())


def _provenance(*paths) -> dict[str, str]:
    return {str(p): io.file_digest(p) for p in paths}


def _side_to_d(side: int) -> int:
    d = round(side**0.5)
    if d * d != side or d < 2:
        raise DephkitError(f"matrix side {side} is not d^2 for a system dimension d >= 2")
    return d


_GRAM_LABELS = {
    "unit-diagonal": "unit diagonal deviation (Gram matrix)",
    "hermitian": "hermiticity deviation (Gram matrix)",
    "psd": "smallest eigenvalue (positive semidefiniteness)",
    "equal-diagonal-blocks": "repeated diagonal block deviation (superchannel structure)",
}


def _add_gram_lines(report: Report, deviations, tol: float) -> None:
    """One detail line per Gram invariant; the psd line shows the smallest eigenvalue against -tol."""
    for check, value in deviations.items():
        sign = -1 if check == "psd" else 1
        report.add(_GRAM_LABELS[check], sign * value, sign * tol)


def _read_super_gram(path, tol: float) -> superchannels.SuperGram:
    mat = io.read_matrix(path)
    return superchannels.validate_super_gram(mat, _side_to_d(mat.shape[0]), tol=tol)


def cmd_gram_validate(args) -> int:
    mat = io.read_matrix(args.file)
    _side_to_d(mat.shape[0])  # the block check needs a side of d^2
    deviations = measure(mat, superchannels.SUPER_GRAM_CHECKS)
    ok = violation(deviations, args.tol) is None
    report = Report(verdict="pass" if ok else "fail", provenance=_provenance(args.file))
    _add_gram_lines(report, deviations, args.tol)
    _emit(report, args)
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_gram_from_unitaries(args) -> int:
    report = Report(verdict="pass", provenance=_provenance(args.file))
    try:
        pre, post = io.read_family_pair(args.file, tol=args.tol)
        sg = superchannels.gram_from_controlled_unitaries(pre, post, tol=args.tol)
    except ValidationError as exc:
        report.verdict = "fail"
        report.add(f"violated invariant: {exc.check}", exc.value, args.tol)
        _emit(report, args)
        return EXIT_DOMAIN
    _add_gram_lines(report, sg.deviations, args.tol)
    if args.out:
        io.write_matrix(args.out, sg.mat)
    _emit(report, args)
    return EXIT_OK


def cmd_gram_from_simulation(args) -> int:
    enc = io.read_bipartite(args.enc, tol=args.tol)
    dec = io.read_bipartite(args.dec, tol=args.tol)
    tau = channels.density_matrix(io.read_matrix(args.tau), tol=args.tol)
    report = Report(verdict="pass", provenance=_provenance(args.enc, args.dec, args.tau))
    try:
        sg = superchannels.gram_from_simulation(enc, dec, tau, tol=args.tol)
    except NotDephasingRealizationError as exc:
        report.verdict = "fail"
        for check in exc.report.failed_checks() if exc.report else ():
            report.add(f"violated realization condition: {check.name}", check.max_violation, args.tol)
        _emit(report, args)
        return EXIT_DOMAIN
    _add_gram_lines(report, sg.deviations, args.tol)
    if args.out:
        io.write_matrix(args.out, sg.mat)
    _emit(report, args)
    return EXIT_OK


def cmd_apply(args) -> int:
    ch = io.read_channel(args.channel, tol=args.tol)
    sg = _read_super_gram(args.gram, args.tol)
    out_ch = superchannels.apply_super(sg, ch, tol=args.tol)
    residual = max_abs(
        channels.classical_action(out_ch, tol=args.tol) - channels.classical_action(ch, tol=args.tol)
    )
    report = Report(verdict="pass", provenance=_provenance(args.channel, args.gram))
    report.add("classical action invariance residual", residual, args.tol)
    report.add("coherence generating power before", channels.coherence_generating_power(ch))
    report.add("coherence generating power after", channels.coherence_generating_power(out_ch))
    if args.out:
        io.write_matrix(args.out, channels.jamiolkowski(out_ch))
    ok = residual <= args.tol
    report.verdict = "pass" if ok else "fail"
    _emit(report, args)
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_verify_realization(args) -> int:
    enc = io.read_bipartite(args.enc, tol=args.tol)
    dec = io.read_bipartite(args.dec, tol=args.tol)
    tau = channels.density_matrix(io.read_matrix(args.tau), tol=args.tol)
    report = Report(verdict="pass", provenance=_provenance(args.enc, args.dec, args.tau))
    result = superchannels.verify_dephasing_realization(enc, dec, tau, tol=args.tol)
    for check in result.checks:
        report.add(f"realization condition: {check.name}", check.max_violation, args.tol)
    report.verdict = "pass" if result.passed else "fail"
    if result.passed and args.out:
        io.write_matrix(args.out, result.gram_entries)
    _emit(report, args)
    return EXIT_OK if result.passed else EXIT_DOMAIN


def cmd_memory_activity(args) -> int:
    sg = _read_super_gram(args.file, args.tol)
    activity = memory.memory_activity_qubit(sg)
    report = Report(verdict="value", value=activity, provenance=_provenance(args.file))
    report.add("memory activity (l1 distance to the passive set)", activity)
    report.add("passive compatible (constant block diagonals)", memory.is_passive_compatible(sg, args.tol))
    if args.out:
        nearest = memory.nearest_passive_qubit(sg, tol=args.tol)
        io.write_matrix(args.out, nearest.mat)
        report.add("nearest passive matrix distance", memory.l1_distance(sg.mat, nearest.mat))
    _emit(report, args)
    return EXIT_OK


def cmd_memory_decompose(args) -> int:
    sg = _read_super_gram(args.file, args.tol)
    dec = memory.decompose_product_qubit(sg, tol=args.tol)
    report = Report(verdict="pass", provenance=_provenance(args.file))
    report.add("reconstruction residual (product mixture)", dec.residual, args.tol)
    report.add("term count", len(dec.terms))
    report.add("total weight", dec.total_weight(), None)
    if args.out:
        obj = {
            "residual": dec.residual,
            "terms": [
                {
                    "weight": t.weight,
                    "c1": io.matrix_to_obj(t.c1.mat),
                    "c2": io.matrix_to_obj(t.c2.mat),
                }
                for t in dec.terms
            ],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1)
    _emit(report, args)
    return EXIT_OK


def cmd_ppt(args) -> int:
    mat = io.read_matrix(args.file)
    if args.dims:
        dims = tuple(args.dims)
    else:
        d = _side_to_d(mat.shape[0])
        dims = (d, d)
    value = memory.ppt_min_eig(mat, dims, tol=args.tol)
    report = Report(verdict="value", value=value, provenance=_provenance(args.file))
    report.add("partial transpose smallest eigenvalue (separability test)", value)
    report.add("entangled (negative certifies)", bool(value < -args.tol))
    _emit(report, args)
    return EXIT_OK


def cmd_family(args) -> int:
    sg = memory.family_gram(args.alpha, args.beta, tol=args.tol)
    report = Report(verdict="pass")
    report.add("alpha", str(args.alpha))
    report.add("beta", str(args.beta))
    if args.ppt:
        measured = memory.ppt_min_eig(sg, tol=args.tol)
        closed = memory.family_ppt_closed_form(args.alpha, args.beta)
        report.add("partial transpose smallest eigenvalue", measured)
        report.add("closed form 1 - sqrt(|a|^2+|b|^2)", closed)
        report.add("closed-form residual", abs(measured - closed), args.tol)
        if abs(measured - closed) > args.tol:
            report.verdict = "fail"
    if args.realize:
        pre, post = memory.family_realization(args.alpha, args.beta, tol=args.tol)
        recon = superchannels.gram_from_controlled_unitaries(pre, post, tol=args.tol)
        residual = max_abs(recon.mat - sg.mat)
        report.add("controlled-unitary round-trip residual", residual, args.tol)
        if residual > args.tol:
            report.verdict = "fail"
        if args.out:
            io.write_family_pair(args.out, pre, post)
    elif args.out:
        io.write_matrix(args.out, sg.mat)
    _emit(report, args)
    return EXIT_OK if report.verdict == "pass" else EXIT_DOMAIN


def cmd_bloch_affine(args) -> int:
    ch = io.read_channel(args.channel, tol=args.tol)
    aff = bloch.affine_from_channel(ch)
    report = Report(verdict="pass", provenance=_provenance(args.channel))
    report.add("distortion matrix rows", [[round(x, 12) for x in row] for row in aff.lam.tolist()])
    report.add("translation vector", [round(x, 12) for x in aff.t.tolist()])
    report.add("distortion is a contraction", aff.is_contraction())
    if args.out:
        obj = {"lambda": io.matrix_to_obj(aff.lam.astype(complex)), "t": list(aff.t)}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1)
    _emit(report, args)
    return EXIT_OK


def cmd_demo_nmr(args) -> int:
    sg = memory.nmr_experimental_gram()
    report = Report(verdict="value")
    _add_gram_lines(report, sg.deviations, memory.NMR_VALIDATION_TOL)
    activity = memory.memory_activity_qubit(sg)
    report.value = activity
    report.add("memory activity (l1 distance to the passive set)", activity)
    report.add("passive compatible (constant block diagonals)", memory.is_passive_compatible(sg, args.tol))
    nearest = memory.nearest_passive_qubit(sg, tol=memory.NMR_VALIDATION_TOL)
    report.add("distance to nearest passive matrix", memory.l1_distance(sg.mat, nearest.mat))
    if args.out:
        io.write_matrix(args.out, sg.mat)
    _emit(report, args)
    return EXIT_OK


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
    common.add_argument("--out", type=Path, default=None, help="write the primary artifact here")
    common.add_argument("--json", dest="as_json", action="store_true", help="machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram-validate", parents=[common], help="check superchannel Gram invariants")
    p.add_argument("file", type=Path)
    p.set_defaults(func=cmd_gram_validate)

    p = sub.add_parser("gram-from-unitaries", parents=[common], help="Gram matrix of a controlled-unitary circuit")
    p.add_argument("file", type=Path, help="JSON with d, pre and post unitary lists")
    p.set_defaults(func=cmd_gram_from_unitaries)

    p = sub.add_parser("gram-from-simulation", parents=[common], help="extract the Gram matrix of an encode/decode simulation")
    p.add_argument("enc", type=Path)
    p.add_argument("dec", type=Path)
    p.add_argument("tau", type=Path, help="initial memory state matrix")
    p.set_defaults(func=cmd_gram_from_simulation)

    p = sub.add_parser("apply", parents=[common], help="transform a channel by a dephasing superchannel")
    p.add_argument("channel", type=Path)
    p.add_argument("gram", type=Path)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("verify-realization", parents=[common], help="check that encode/decode maps realize a dephasing superchannel")
    p.add_argument("enc", type=Path)
    p.add_argument("dec", type=Path)
    p.add_argument("tau", type=Path)
    p.set_defaults(func=cmd_verify_realization)

    p = sub.add_parser("memory-activity", parents=[common], help="active-memory requirement of a qubit superchannel")
    p.add_argument("file", type=Path)
    p.set_defaults(func=cmd_memory_activity)

    p = sub.add_parser("memory-decompose", parents=[common], help="product decomposition of a passive-compatible qubit superchannel")
    p.add_argument("file", type=Path)
    p.set_defaults(func=cmd_memory_decompose)

    p = sub.add_parser("ppt", parents=[common], help="smallest partial-transpose eigenvalue")
    p.add_argument("file", type=Path)
    p.add_argument("--dims", type=int, nargs=2, default=None, help="bipartite factor dimensions")
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("family", parents=[common], help="qutrit example family and its realization")
    p.add_argument("--alpha", type=complex, required=True)
    p.add_argument("--beta", type=complex, required=True)
    p.add_argument("--ppt", action="store_true", help="report the partial-transpose eigenvalue check")
    p.add_argument("--realize", action="store_true", help="build the controlled-unitary realization")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("bloch-affine", parents=[common], help="affine Bloch representation of a qubit channel")
    p.add_argument("channel", type=Path)
    p.set_defaults(func=cmd_bloch_affine)

    p = sub.add_parser("demo-nmr", parents=[common], help="analyze the bundled experimental matrix")
    p.set_defaults(func=cmd_demo_nmr)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DephkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
