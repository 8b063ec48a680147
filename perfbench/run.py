"""The idemnorm benchmark: one workload per run, measured from outside the
library through its public functions.

    python3 perfbench/run.py --workload sweep-abelian --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from one traced
round (see tracer.py).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: every matrix here is at most 64x64, where a second thread
# does not help, and OpenBLAS threads that spin-wait on a shared core made
# calls many times slower when another process was busy.  Set before any
# numpy import, here and in the set-up probes this script starts.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from measure import (EIGH_BUDGET, KNOWN_FAILURES, host_scale, judge, quiet,  # noqa: E402
                     reference_time, run_pass, tail)
from tracer import Tracer  # noqa: E402
from workloads import OK, WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # fresh processes timing set-up, besides the run itself
PROBE_TIMEOUT_S = 60


def timed_setup(workload_name: str, workdir: str):
    """Set the workload up; returns it and the set-up time at the reference
    speed (see measure.reference_time)."""
    start = time.perf_counter()
    workload = WORKLOADS[workload_name](workdir)
    with quiet():
        workload.setup()
    elapsed = time.perf_counter() - start
    return workload, elapsed * host_scale([reference_time() for _ in range(5)])


def setup_times(argv: list[str], workdir: str) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv,
             "--setup-probe", "--workdir", workdir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, records, statuses, setup: list[float], rss_mb: float) -> dict:
    durations = [elapsed * scale for _, _, elapsed, scale in records]
    work = sum(item.work for (item, *_), status in zip(records, statuses) if status == OK)
    tail_value, tail_note = tail(durations)
    failed = sum(status != OK for status in statuses)
    raw_busy = sum(elapsed for _, _, elapsed, _ in records)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "work_per_s": metric(work / sum(durations), "1/s"),
        "call_p50_s": metric(statistics.median(durations), "s"),
        "call_tail_s": metric(tail_value, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "work_per_s": f"{workload.unit}s completed per busy second",
        "call_p50_s": f"{len(durations)} calls",
        "call_tail_s": tail_note,
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    for name, entry in metrics.items():
        print(f"{name:<12} {entry['value']:.6g} {entry['unit']}  ({notes[name]})")
    print(f"{'fail_ratio':<12} {failed / len(records):.6g}  ({failed} of {len(records)} calls)")
    print(f"{'host_scale':<12} {sum(durations) / raw_busy:.4g}  (times above are at the "
          f"reference speed; measured busy time {raw_busy:.4g} s)")
    return metrics


def per_layer(totals: dict, traced_busy: float, untraced_busy: float) -> dict:
    metrics = {}
    for name, slot in totals.items():
        metrics[f"{name}.calls"] = metric(slot["calls"], "count")
        metrics[f"{name}.self_s"] = metric(slot["self_s"], "s")
    canonical = totals["sweep.canonical_form"]["calls"]
    gamma2 = totals["schur.gamma2"]
    metrics["sweep.canonical_hit_ratio"] = metric(
        totals["sweep.classify"]["calls"] / canonical if canonical else 0.0, "ratio")
    metrics["schur.gamma2.fail_ratio"] = metric(
        gamma2["raised"] / gamma2["calls"] if gamma2["calls"] else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = metric(traced_busy / untraced_busy, "ratio")
    for name, entry in metrics.items():
        print(f"{name:<40} {entry['value']:.6g} {entry['unit']}")
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "idemnorm" / "__init__.py").is_file():
        print(f"no idemnorm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(timed_setup(args.workload, args.workdir)[1])
        return 0

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup = [] if args.trace else setup_times(argv, workdir)
        workload, own_setup = timed_setup(args.workload, workdir)
        setup.append(own_setup)

        import numpy

        # a fixed number of rounds, so that a seed always makes the same calls
        rounds = max(1, round(args.seconds / workload.round_s))
        print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
              f"python={platform.python_version()} numpy={numpy.__version__} "
              f"nproc={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} "
              f"rounds={rounds} eigh_budget={EIGH_BUDGET}")
        if args.trace:
            # one round, so that the traced counts repeat exactly for a seed
            tracer = Tracer()
            records, busy = run_pass(workload.rounds(args.seed), 1, workload.deadline_s,
                                     tracer)
            statuses = judge(records)
            traced_busy = sum(elapsed for _, _, elapsed, _ in records[1::2])
            metrics = per_layer(tracer.layer_totals(), traced_busy, busy)
        else:
            records, busy = run_pass(workload.rounds(args.seed), rounds,
                                     workload.deadline_s)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            statuses = judge(records)
            metrics = end_to_end(workload, records, statuses, setup, rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for (item, *_), status in zip(records, statuses):
        if status != OK:
            print(f"FAILED {item.label}: {status}")
    result = {
        "correct": all(status == OK or status in KNOWN_FAILURES for status in statuses),
        "attempted": len(records),
        "failed": sum(status != OK for status in statuses),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
