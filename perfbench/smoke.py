"""Smoke check of the benchmark itself, at a tiny size (about three minutes).

    python3 perfbench/smoke.py

Verifies that
  * each broken triple kind, at d=2 and d=3, trips exactly its named
    realization check and is refused by gram_from_simulation;
  * every case of the cli mix exits with its expected code (0, 1 and 2 all
    occur);
  * each workload, run for one second (and at least 30 operations), emits
    every end-to-end metric of BENCHMARK.json with its unit and fails no
    operation (failed_frac is 0);
  * the traced run emits every per-layer metric with its unit;
  * run.py exits non-zero, printing no result, in a directory that holds
    only BENCHMARK.json and the benchmark's files.
Exits 0 if all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_broken_kinds(problems: list[str]) -> None:
    import numpy as np

    import inputs
    import workloads
    from dephkit import gram_from_simulation, verify_dephasing_realization

    rng = np.random.default_rng(0)
    for d in (2, 3):
        for kind in inputs.EXPECTED_CHECK:
            t = inputs.make_triple(kind, d, rng)
            failed = {c.name for c in verify_dephasing_realization(t.enc, t.dec, t.tau).failed_checks()}
            if failed & inputs.SIDE_CHECKS != {t.expected_check}:
                problems.append(f"{kind} d={d} tripped {sorted(failed)}, expected {t.expected_check}")
            try:
                result = gram_from_simulation(t.enc, t.dec, t.tau)
            except Exception as exc:  # the verdict check below names what is wrong
                result = exc
            problem = workloads.check_verdict(t, result)
            if problem:
                problems.append(problem)
        genuine = inputs.make_triple("coherent", d, rng)
        problem = workloads.check_verdict(genuine, gram_from_simulation(genuine.enc, genuine.dec, genuine.tau))
        if problem:
            problems.append(problem)


def check_cli_exit_codes(problems: list[str], tmp: Path) -> None:
    import workloads

    mix = workloads.Cli(seed=0, tmp=tmp)
    codes = {case.exit_code for case in mix.pool}
    if codes != {0, 1, 2}:
        problems.append(f"cli mix expects exit codes {sorted(codes)}, not 0, 1 and 2")
    for case in mix.pool:
        proc = mix.run(case)
        if proc.returncode != case.exit_code:
            problems.append(f"cli {case.label}: exit {proc.returncode}, expected {case.exit_code}")


def run_bench(args: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def check_metrics(problems: list[str], label: str, result: dict | None, expected: list[dict]) -> None:
    if result is None or set(result) != RESULT_KEYS:
        problems.append(f"{label}: last line is not a result object: {result}")
        return
    if result["failed"] or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']}/{result['attempted']} operations failed")
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {m['name']} [{m['unit']}] missing or malformed: {got}")


def check_bare_directory(problems: list[str], scratch: Path) -> None:
    bare = Path(tempfile.mkdtemp(dir=scratch, prefix="bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, result = run_bench(["--workload", "realize-small", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        if code == 0 or result is not None:
            problems.append(f"bare directory: exit {code}, result {result}")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    import run

    os.environ.update(run.child_env())  # the cli children import dephkit from src/ too
    sys.path.insert(0, str(ROOT / "src"))
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    problems: list[str] = []
    check_broken_kinds(problems)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="tmp-") as tmp:
        check_cli_exit_codes(problems, Path(tmp))
    smoke_out = ["--out", str(scratch / "smoke")]
    for w in SPEC["workloads"]:
        _, result = run_bench(["--workload", w["name"], "--seed", "1", "--seconds", "1", "--trace", "0", *smoke_out], ROOT)
        check_metrics(problems, w["name"], result, SPEC["end_to_end"])
    _, result = run_bench(["--workload", "qubit-certify", "--seed", "1", "--seconds", "1", "--trace", "1", *smoke_out], ROOT)
    check_metrics(problems, "traced run", result, SPEC["per_layer"])
    check_bare_directory(problems, scratch)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
