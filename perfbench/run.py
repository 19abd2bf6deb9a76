"""dephkit benchmark: realization certification, qubit certificates and the CLI.

    python3 perfbench/run.py --workload realize-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn

Run from the root of a source checkout; the library is imported from its
``src/``, nothing needs installing. Workloads (why each was chosen is in
``BENCHMARK.json``):

    realize-small  gram_from_simulation on the fixed d=3 triple mix
    realize-large  the same mix at d=4
    qubit-certify  activity, nearest passive matrix and product certificate
    cli            one dephkit process per subcommand of a fixed mix

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
run instead and prints the per-layer metrics. Each workload runs in a child
process whose BLAS thread count is pinned to at most ``nproc``; set-up is
done ``SETUPS`` times (the extra ones stop before the first timed operation)
and ``setup_s`` is their median. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, sample counts, per-operation latencies, failure messages) is
also written as JSON under ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("realize-small", "realize-large", "qubit-certify", "cli")
SETUPS = 3
DEADLINE_S = 170  # the whole invocation for one workload must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    """This process's environment plus the library path and BLAS thread pins."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Start worker.py with ``args``; return its JSON line. Kills it on timeout."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, env: dict, deadline: float) -> dict:
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="tmp-") as tmp:
        common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--tmp", tmp]
        setups = []
        if not trace:
            for _ in range(SETUPS - 1):
                setups.append(run_worker([*common, "--setup-only"], env, deadline)["setup_s"])
        res = run_worker([*common, "--trace", str(trace)], env, deadline)
    setups.append(res["setup_s"])
    if not trace:
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        res["setups_s"] = setups
    res["env"].update(seed=seed, seconds=seconds, trace=trace, operations=res["attempted"])
    res["failed"] = len(res["failures"])
    return res


def save(record: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / f"{record['workload']}-t{record['trace']}-s{record['seed']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def print_human(name: str, res: dict) -> None:
    for metric, m in res["metrics"].items():
        note = f"  (n={res['samples']})" if metric in ("op_p50_ms", "op_p90_ms") else ""
        print(f"{name:14s} {metric:52s} {m['value']:.6g} {m['unit']}{note}")
    frac = res["failed"] / res["attempted"]
    print(f"{name:14s} {'failed_frac':52s} {frac:.6g} ratio  ({res['failed']}/{res['attempted']})")
    for problem in res["failures"][:5]:
        print(f"{name:14s} FAILED: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out" / "results", help="directory for result records")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dephkit" / "__init__.py").is_file():
        print(f"error: no dephkit source under {ROOT / 'src'}; run from a dephkit checkout", file=sys.stderr)
        return 2
    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            res = run_workload(name, args.seed, args.seconds, args.trace, env, deadline)
            res.update(workload=name, seed=args.seed, trace=args.trace)
            save(res, args.out)
            print_human(name, res)
            results[name] = res
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    for name, res in results.items():
        print(f"env {name} " + json.dumps(res["env"], sort_keys=True))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
