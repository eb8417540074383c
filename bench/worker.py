"""Child process of the benchmark: serves one workload, prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --probe

kgbound is imported from this checkout's `src/` only; anything else is an
error, so the benchmark cannot silently measure an installed copy.  `--probe`
serves the workload's first request (reference seed 0) and exits: the parent
times it from outside as the set-up cost a fresh interpreter pays.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPAN_DIR = ROOT / ".bench_out"
PROBE_SEED = 0

# Generator cycles per traced pass.  Fixed, so call counts repeat exactly
# for a seed; sized to take about ten seconds per pass.  Requests are served
# in batches of one generator cycle (workloads.CYCLE).
TRACED_CYCLES = {"mixed_confirm": 10, "mixed_scan": 4, "scalar_oracle": 27, "tables": 10}
# A latency percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10
# A typical time of workloads.python_reference on the host where the
# benchmark was tuned (2 vCPUs, Python 3.11).  A calibrated request time is its measured
# time times REFERENCE_S / (reference time around its batch): the time the
# request would have taken at that host speed.
REFERENCE_S = 1.7e-3


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_SAMPLES samples beyond its
    nearest-rank position, never below the median."""
    p = 99
    while p > 50 and math.ceil(p * n / 100) > n - TAIL_SAMPLES:
        p -= 1
    return p


def nearest_rank(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import kgbound

    if Path(kgbound.__file__).resolve().parent != ROOT / "src" / "kgbound":
        raise SystemExit(f"kgbound imported from {kgbound.__file__}, not from {ROOT / 'src'}")
    return kgbound


class Session:
    """Serves requests in order and keeps the per-request record."""

    def __init__(self, requests, serve, check, errors, start=0, reference=None):
        self.requests, self.serve, self.check, self.errors = requests, serve, check, errors
        self.reference = reference
        self.scales: list[float] = []  # calibration factor of each batch
        self.next = start
        self.latencies: list[float] = []  # seconds; inf for a failed request
        self.elapsed: list[float] = []  # seconds, failed or not
        self.delivered: list[int] = []  # levels or rows each request delivered
        self.failures: list[str] = []
        self.max_rel_dev = 0.0
        self.out_bytes = 0

    def serve_batch(self, count: int, recorder=None) -> None:
        """Serve `count` requests back to back, timing each, then check them.

        Checking after the batch rather than between requests keeps the
        gates' own work from evicting the program's caches before each
        request; the collector runs once per batch, outside the clock.
        """
        gc.collect()
        before = _timed(self.reference) if self.reference else 0.0
        served = []
        for _ in range(count):
            rid = self.next
            req = self.requests[rid % len(self.requests)]
            self.next += 1
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    result = self.serve(req)
                else:
                    with recorder.request(rid):
                        result = self.serve(req)
            except self.errors as exc:
                result = exc
            served.append((rid, req, result, time.perf_counter() - t0))
        scale = 1.0
        if self.reference:
            scale = REFERENCE_S / (0.5 * (before + _timed(self.reference)))
            self.scales.append(scale)
        for rid, req, result, elapsed in served:
            self._record(rid, req, result, elapsed * scale)

    def _record(self, rid, req, result, elapsed: float) -> None:
        if isinstance(result, self.errors):
            verdict, reason = None, f"{type(result).__name__}: {result}"
        else:
            verdict = self.check(req, result)
            reason = verdict.reason
        ok = verdict is not None and verdict.ok
        self.elapsed.append(elapsed)
        self.delivered.append(verdict.levels if ok else 0)
        self.latencies.append(elapsed if ok else math.inf)
        if not ok:
            self.failures.append(f"request {rid} ({req.kind}): {reason}"[:300])
        if verdict is not None:
            self.max_rel_dev = max(self.max_rel_dev, verdict.rel_dev)
            self.out_bytes += verdict.out_bytes

    def levels_per_s(self, batch: int | None = None) -> float:
        """Levels per busy second; with `batch`, the median over consecutive
        batches of that many requests, which a passing slowdown of the
        host moves less than the overall mean."""
        n = len(self.elapsed)
        if batch is None or n < batch:
            batch = n
        rates = [
            sum(self.delivered[i:i + batch]) / sum(self.elapsed[i:i + batch])
            for i in range(0, n - batch + 1, batch)
        ]
        return statistics.median(rates) if rates else 0.0


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _finite(x: float):
    return x if math.isfinite(x) else None


def timed_run(session: Session, seconds: float, batch: int) -> dict:
    """Serve whole batches until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    while not session.latencies or time.perf_counter() < deadline:
        session.serve_batch(batch)
    n = len(session.latencies)
    p = tail_percentile(n)
    return {
        "metrics": {
            "levels_per_s": session.levels_per_s(batch),
            "request_p50_ms": _finite(1e3 * nearest_rank(session.latencies, 50)),
            "request_tail_ms": _finite(1e3 * nearest_rank(session.latencies, p)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "tail_percentile": p,
        "samples": n,
        "scale": statistics.median(session.scales) if session.scales else None,
    }


def traced_run(plain: Session, traced: Session, batch: int, batches: int,
               span_file: Path) -> dict:
    """Serve each batch untraced, then traced, so drift hits both alike."""
    import tracing

    recorder = tracing.Recorder()
    for _ in range(batches):
        plain.serve_batch(batch)
        with recorder.installed():
            traced.serve_batch(batch, recorder)
    recorder.dump(span_file)
    metrics = tracing.layer_metrics(recorder.spans)
    metrics["oracle.max_rel_dev"] = traced.max_rel_dev
    metrics["cli.bytes_out"] = traced.out_bytes
    metrics["trace.levels_per_s"] = traced.levels_per_s()
    metrics["trace.untraced_levels_per_s"] = plain.levels_per_s()
    overhead = plain.levels_per_s() / traced.levels_per_s() - 1.0 if traced.levels_per_s() else 0.0
    metrics["trace.overhead_pct"] = 100.0 * overhead
    return {"metrics": metrics, "spans": len(recorder.spans)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=PROBE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    kgbound = import_program()
    import numpy
    import scipy

    import workloads

    if args.workload not in workloads.GENERATORS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    requests = workloads.GENERATORS[args.workload](PROBE_SEED if args.probe else args.seed)
    warm = Session(requests, workloads.serve, workloads.check, kgbound.KGBoundError)
    if args.probe:
        warm.serve_batch(1)
        return 1 if warm.failures else 0

    cycle = workloads.CYCLE[args.workload]
    warm.serve_batch(cycle)  # untimed: lazy imports and first-call costs

    def measured(reference=None) -> Session:
        return Session(requests, workloads.serve, workloads.check, kgbound.KGBoundError,
                       start=warm.next, reference=reference)

    if args.trace:
        plain, traced = measured(), measured()
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        out = traced_run(plain, traced, cycle, TRACED_CYCLES[args.workload], span_file)
        sessions = [warm, plain, traced]
    else:
        reference = workloads.REFERENCES.get(args.workload)
        for _ in range(10 if reference else 0):  # warm the reference too
            reference()
        session = measured(reference)
        out = timed_run(session, args.seconds, cycle)
        sessions = [warm, session]
    failures = [f for s in sessions for f in s.failures]
    out.update(
        attempted=sum(len(s.latencies) for s in sessions),
        failed=len(failures),
        failures=failures[:5],
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
