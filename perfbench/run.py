"""drovar benchmark: one closed-loop client, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload duality_small --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
untraced for half the time, then replays the same operations with spans
around every layer and prints the per-layer metrics.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import os

# One BLAS/OpenMP thread, set before numpy loads; children inherit it.
BLAS_CAP = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(BLAS_CAP)

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("duality_small", "atoms_large", "robust_portfolio", "cli_sweep")
SETUP_PROCESSES = 5
# An untraced run repeats the library at least this often, so each
# operation's latency is a median over at least three repeats.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Seconds that fresh processes take to import drovar and build the inputs."""
    return [float(subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                                  str(seed), str(work)], check=True, capture_output=True,
                                 text=True).stdout) for _ in range(SETUP_PROCESSES)]


def drive(wl, workloads, seconds=None, count=None, rec=None, after=None, min_passes=1):
    """Closed loop over the workload's operations: the next operation starts
    when the previous one has returned and been checked.  Runs whole passes
    over the library, at least `min_passes` of them, until `seconds` have
    passed, so every run has the same mix; or exactly `count` operations."""
    records = []
    start = time.perf_counter()
    k = 0
    n = len(wl.ops)
    while (k < count) if count is not None else (
            k % n or k < min_passes * n or time.perf_counter() - start < seconds):
        op = wl.ops[k % n]
        if rec is not None:
            rec.op = k
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # an operation that raises counts as failed
            out, error = None, exc
        latency = time.perf_counter() - t0
        if rec is not None:
            rec.op = -1
        if after is not None:
            after(k)
        if error is not None:
            verdict = workloads.Verdict(False, False, f"raised {error!r}")
        else:
            verdict = op.check(out)
        records.append({"op": k, "slot": k % n, "tags": op.tags, "latency": latency,
                        "verdict": verdict, "rss_kb": getattr(out, "maxrss_kb", 0)})
        k += 1
    return records


def op_medians(records):
    """Each library operation's median latency over the passes of a run, so
    that one repeat caught in a slow spell of the shared host does not move
    the median latency."""
    by_slot = {}
    for r in records:
        by_slot.setdefault(r["slot"], []).append(r["latency"])
    return [statistics.median(lat) for lat in by_slot.values()]


def tail(latencies, pct):
    """Mean of the latencies beyond the workload's tail percentile, and how
    many there are.  A single high percentile of a few hundred samples jumps
    between operations whose latencies lie far apart whenever the host slows
    a few repeats; the mean of the samples beyond it moves with them."""
    cut = float(np.percentile(latencies, pct))
    beyond = [x for x in latencies if x > cut] or [cut]
    return statistics.fmean(beyond), len(beyond)


def end_to_end(records, setup_times, wl):
    lat = [r["latency"] for r in records]
    failed = sum(1 for r in records if not r["verdict"].ok)
    tail_s, _ = tail(lat, wl.tail_pct)
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(r["rss_kb"] for r in records)
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(op_medians(records)),
        "latency_tail_ms": 1e3 * tail_s,
        "ok_frac": 1.0 - failed / len(lat),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def traced(wl, workloads, seconds, work):
    """Untraced pass for half the time, then the same operations traced."""
    import spans

    plain = drive(wl, workloads, seconds=seconds / 2.0)
    rec = spans.Recorder()
    extra = {}
    after = None
    if wl.in_process:
        spans.install_library(rec)
    else:
        span_file = work / "spans.json"
        wl.extra["state"]["launcher"] = [sys.executable, str(HERE / "cli_child.py"),
                                         str(span_file)]
        imports = []

        def after(k):
            child = json.loads(span_file.read_text())
            span_file.unlink()
            imports.append(child["import_s"])
            base = len(rec.spans)
            for s in child["spans"]:
                rec.spans.append([s[0] + base, s[1] + base if s[1] >= 0 else -1, k, *s[3:]])

    replay = drive(wl, workloads, count=len(plain), rec=rec, after=after)
    if not wl.in_process:
        extra["cli.import_s"] = statistics.mean(imports)
        for kind in ("bound_variance", "sweep"):
            lat = [r["latency"] for r in plain if r["tags"]["kind"] == kind]
            extra[f"cli.process_ms.{kind}"] = 1e3 * statistics.mean(lat) if lat else 0.0
    extra["trace.overhead_frac"] = (sum(r["latency"] for r in replay)
                                    / sum(r["latency"] for r in plain) - 1.0)
    scaled = [abs(r["verdict"].gap) for r in replay if r["tags"]["c"] != 1.0]
    extra["solver.scaled_gap_max"] = max(scaled, default=0.0)
    metrics = spans.layer_metrics(
        rec.spans, {r["op"]: r["tags"] for r in replay},
        {r["op"]: int(r["latency"] * 1e9) for r in replay}, extra)
    units = {k: spans.PER_LAYER_UNITS[k] for k in metrics}
    return plain + replay, metrics, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drovar" / "__init__.py").is_file():
        print(f"error: no drovar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import drovar

    if Path(drovar.__file__).resolve().parent != SRC / "drovar":
        print(f"error: imported drovar from {drovar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = ROOT / ".perfbench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = measure_setup(args.workload, args.seed, work)
        wl = workloads.build(args.workload, args.seed, work)
        wl.warm_up()
        if args.trace:
            records, metrics, units = traced(wl, workloads, args.seconds, work)
        else:
            records = drive(wl, workloads, seconds=args.seconds, min_passes=MIN_PASSES)
            metrics = end_to_end(records, setup_times, wl)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [r for r in records if not r["verdict"].ok]
    print(f"workload {args.workload} seed {args.seed}: {len(records)} operations, "
          f"{len(failures)} failed; BLAS threads capped at 1 ({', '.join(BLAS_CAP)})")
    print(f"setup_s per fresh process: {', '.join(f'{t:.3f}' for t in setup_times)}")
    if not args.trace:
        lat = [r["latency"] for r in records]
        _, beyond = tail(lat, wl.tail_pct)
        print(f"latency_tail_ms is the mean of the {beyond} of {len(records)} latencies "
              f"beyond their p{wl.tail_pct:g} ({1e3 * np.percentile(lat, wl.tail_pct):.1f} ms); "
              f"latency_p50_ms is the median of {len(wl.ops)} per-operation medians over "
              f"{len(records) // len(wl.ops)} passes")
    for r in failures[:10]:
        print(f"failed op {r['op']} {r['tags']}: {r['verdict'].why}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = all(r["verdict"].sound for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
