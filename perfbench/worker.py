"""One workload in one process: set up, warm up, then time a closed loop.

Started by ``run.py`` with the BLAS thread pins and ``PYTHONPATH`` already
in its environment. Prints one JSON object as its last line of stdout.

Closed loop: one client, each operation starting after the previous one and
its output check end. The loop stops at the first boundary between passes
over the input pool at or after ``--seconds`` that also holds at least
``MIN_SAMPLES`` operations, so every run times whole passes of the fixed mix
and a median never depends on where in the mix a run was cut. The sample
floor gives the p90 a few samples beyond it, and fixes the pass count of the
long-pass ``cli`` workload (16 processes, 15-20 s a pass) at two whatever the
machine's speed, where a time rule alone would flip it between one and two
passes and move its p90 with the sample count. Throughput is the median
over passes of correct operations per second of timed spans, so a few
seconds of a faster or slower machine move it as little as they move the
latency median. The p90 is the Harrell-Davis estimate, a weighted mean of all
order statistics, which on the few dozen samples of ``realize-large`` and
``cli`` varies less from run to run than one interpolated order statistic.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_SAMPLES = 30  # a p90 needs three samples beyond it


def _import_dephkit() -> None:
    import dephkit

    where = Path(dephkit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"dephkit was imported from {where}, not from {SRC}")


def _blas_record() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*")):
        try:
            threads = int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
        break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_record(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _attempt(wl, item, tracer=None):
    """Run one operation; (seconds, problem or None). The check is not timed."""
    t = time.perf_counter()
    try:
        result = wl.run(item, tracer)
    except Exception as exc:  # an unexpected raise is a failed operation, not a crash
        return time.perf_counter() - t, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t
    try:
        return elapsed, wl.check(item, result)
    except Exception as exc:
        return elapsed, f"output check raised {type(exc).__name__}: {exc}"


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (Biometrika 69, 1982)."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ x)


def timed_loop(wl, seconds: float) -> dict:
    latencies, failures, passes = [], [], []
    start = time.perf_counter()
    while True:
        correct, busy = 0, 0.0
        for item in wl.pool:
            elapsed, problem = _attempt(wl, item)
            latencies.append(elapsed)
            busy += elapsed
            if problem is None:
                correct += 1
            else:
                failures.append(problem)
        passes.append(correct / busy)
        if time.perf_counter() - start >= seconds and len(latencies) >= MIN_SAMPLES:
            return {"latencies": latencies, "passes": passes, "failures": failures}


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def end_to_end(loop: dict, setup_s: float, rss_mb: float) -> dict:
    lat = loop["latencies"]
    return {
        "ops_per_s": (statistics.median(loop["passes"]), "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (harrell_davis(lat, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced(wl, workload: str, seed: int, seconds: float, tmp: Path) -> tuple[dict, int, list[str]]:
    """Tracing overhead on the workload, then the layer sweep."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    plain, spanned, failures = [], [], []
    # Same input untraced then traced, in pairs, for a fixed share of the run.
    budget = min(6.0, seconds)
    start = time.perf_counter()
    i = 0
    while i < len(wl.pool) and (i < 3 or time.perf_counter() - start < budget):
        item = wl.pool[i]
        for sink, tr in ((plain, None), (spanned, tracer)):
            if tr is None:
                elapsed, problem = _attempt(wl, item)
            else:
                with tracer.span(f"op.{workload}", op=i):
                    elapsed, problem = _attempt(wl, item, tracer)
            sink.append(elapsed)
            if problem is not None:
                failures.append(problem)
                for span in tracer.spans:
                    if span["op"] == i:
                        span["failed"] = True
        i += 1

    sweep = layers.Sweep(tracer, seed, tmp)
    metrics = sweep.run()
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_ms"] = ((sum(spanned) - sum(plain)) / len(plain) * 1e3, "ms")
    metrics["trace.overhead_pct"] = ((sum(spanned) / sum(plain) - 1) * 100, "%")
    trace_dir = tmp.parent / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_dir / f"{workload}-seed{seed}.json")
    return metrics, 2 * len(plain) + sweep.attempted, failures + sweep.failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the launcher started us")
    ap.add_argument("--tmp", type=Path, required=True, help="scratch directory inside the checkout")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_dephkit()
    import workloads

    wl = workloads.build(args.workload, args.seed, args.tmp)
    for item in wl.warm:
        _attempt(wl, item)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if not args.setup_only:
        out["env"] = environment()
        if args.trace:
            metrics, attempted, failures = traced(wl, args.workload, args.seed, args.seconds, args.tmp)
        else:
            loop = timed_loop(wl, args.seconds)
            metrics = end_to_end(loop, setup_s, peak_rss_mb(args.workload == "cli"))
            attempted, failures = len(loop["latencies"]), loop["failures"]
            out["samples"] = attempted
            out["latencies_ms"] = [x * 1e3 for x in loop["latencies"]]
        out.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   attempted=attempted, failures=failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
