"""Compare two sets of benchmark runs, metric by metric, one row per workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by ``run.py --out DIR`` (only
``--trace 0`` records are compared). For every end-to-end metric of
``BENCHMARK.json`` and every workload the report gives each side's median and
quartiles, as ``statistics.quantiles(values, n=4)`` computes them, and a
verdict:

    regressed   NEW's median is worse than BASE's by more than the bound
    unresolved  either side's quartile spread, as a share of its median, is
                wider than the bound, and not every NEW run beats every BASE run
    improved    NEW's median is better by more than BASE's quartile spread,
                and NEW beats BASE in nine tenths of all (BASE run, NEW run) pairs
    unchanged   otherwise

``failed_frac`` (failed / attempted operations) is shown beside them; a NEW
set that fails more operations than BASE is marked regressed. Exits 1 if any
pairing regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base: list[float], new: list[float], bound: float, lower_better: bool) -> tuple[str, float]:
    """(verdict, signed change of NEW's median against BASE's, as a share)."""
    bm, bq1, bq3 = summary(base)
    nm, nq1, nq3 = summary(new)
    change = (nm - bm) / bm
    worse = change if lower_better else -change
    spread = max((bq3 - bq1) / bm, (nq3 - nq1) / nm)
    pairs = [(b, n) for b in base for n in new]
    wins = sum((n < b) if lower_better else (n > b) for b, n in pairs) / len(pairs)
    if spread > bound and wins < 1:
        return "unresolved", change
    if worse > bound:
        return "regressed", change
    if -worse > (bq3 - bq1) / bm and wins >= 0.9:
        return "improved", change
    return "unchanged", change


def fmt(values: list[float]) -> str:
    med, q1, q3 = summary(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)

    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.new)
    regressed = False
    rows = []
    print(f"{'workload':14s} {'metric':12s} {'unit':6s} {'base median [q1, q3]':32s} "
          f"{'new median [q1, q3]':32s} {'change':>8s} {'bound':>6s}  verdict")
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in base or name not in new:
            print(f"{name:14s} missing from {'base' if name not in base else 'new'}")
            continue
        cells = []
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base[name]]
            n = [r["metrics"][m["name"]]["value"] for r in new[name]]
            v, change = verdict(b, n, m["bound"], m["better"] == "lower")
            regressed |= v == "regressed"
            cells.append(f"{m['name']}={v}")
            print(f"{name:14s} {m['name']:12s} {m['unit']:6s} {fmt(b):32s} {fmt(n):32s} "
                  f"{change:+8.1%} {m['bound']:6.0%}  {v}")
        bf = [r["failed"] / r["attempted"] for r in base[name]]
        nf = [r["failed"] / r["attempted"] for r in new[name]]
        v = "regressed" if sum(nf) / len(nf) > sum(bf) / len(bf) else "unchanged"
        regressed |= v == "regressed"
        cells.append(f"failed_frac={v}")
        print(f"{name:14s} {'failed_frac':12s} {'ratio':6s} {fmt(bf):32s} {fmt(nf):32s} {'':8s} {'':6s}  {v}")
        rows.append(f"{name:14s} ({len(base[name])} vs {len(new[name])} runs)  " + "  ".join(cells))
    print()
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
