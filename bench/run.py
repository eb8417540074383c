"""kgbound benchmark: seeded workloads served closed-loop, every answer checked.

    python3 bench/run.py --workload mixed_confirm --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --seconds 50        # every workload, one after another

One client sends the next request only when the previous one has returned,
on one thread, with BLAS/OpenMP pinned to one thread.  Each workload runs in
a fresh child process (bench/worker.py), so its peak memory is its own.  With
--trace 0 the end-to-end metrics are measured; with --trace 1 a separate run
times each kgbound layer from outside and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status: 0 when every gate passes, 1 when a gate
fails, 2 when the program cannot be run (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("mixed_confirm", "mixed_scan", "scalar_oracle", "tables")
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
END_TO_END = {
    "levels_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
WORKER_GRACE_S = 120.0  # beyond --seconds, for warm-up and the last request
PROBE_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def _child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = {**os.environ, **THREAD_PINS}
    try:
        return subprocess.run(
            [sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(argv)} timed out after {timeout} s") from exc


def _failed(proc: subprocess.CompletedProcess, what: str) -> BenchError:
    tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
    return BenchError(f"{what} exited {proc.returncode}: {tail}")


def setup_seconds(workload: str) -> list[float]:
    """Wall time for fresh interpreters to import kgbound and serve one request."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = _child(["--workload", workload, "--probe"], PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise _failed(proc, "set-up probe")
    return times


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else "unknown"
    return ref


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = _child(argv, seconds + WORKER_GRACE_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise _failed(proc, "worker")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = summary["metrics"]
    units = tracing.PER_LAYER_UNITS if trace else END_TO_END

    env = {"sha": git_sha(), **summary["versions"], "nproc": os.cpu_count(), **THREAD_PINS}
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print(f"# env {json.dumps(env)}")
    if trace:
        print(f"# traced pass: {summary['spans']} spans")
    else:
        setup = setup_seconds(workload)
        metrics["setup_s"] = statistics.median(setup)
        print(f"# setup_s is the median of {len(setup)} fresh interpreters: "
              + " ".join(f"{t:.4f}" for t in setup))
        print(f"# request_tail_ms is p{summary['tail_percentile']} "
              f"of {summary['samples']} requests")
        if summary["scale"] is not None:
            print(f"# request times are calibrated: measured time x {summary['scale']:.4f} "
                  "(median over batches; see README)")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} requests failed)")
    for reason in summary["failures"]:
        print(f"# FAILED {reason}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    results = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            results.append(run_workload(workload, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
