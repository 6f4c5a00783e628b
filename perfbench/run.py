"""purebetti benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ladder|decide|generator --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Steps, each in its own process so no in-process cache carries over:
  1. bench_inputs.py builds the seeded inputs and the expected answers;
  2. bench_timed.py runs whole passes of ops in a closed loop until the
     summed op time (scaled to a nominal machine speed, see bench_timed.py)
     reaches --seconds and at least 100 ops ran (`ladder`
     starts a fresh process for every pass, so no gap vector repeats inside
     one process), then checks every output;
  3. set-up probes: fresh processes that import the package, load the
     inputs and exit; setup_s is the median of their start-to-ready times.
With --trace 1 the run instead times one pass twice, once with the span
recorder (bench_trace.py) and once without, and reports per-layer metrics.
The last line of standard output is the JSON result.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import bench_poly

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
MIN_OPS = 100  # so the p90 latency has at least ten samples beyond it


def child(script, *args):
    cmd = [sys.executable, str(HERE / script), *map(str, args)]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)


def timed(inputs, out, **options):
    args = ["--inputs", inputs, "--out", out]
    for name, value in options.items():
        args += [f"--{name.replace('_', '-')}", value]
    child("bench_timed.py", *args)
    return json.loads(Path(out).read_text())


def setup_seconds(inputs, probes, nominal_kernel_s):
    """Median start-to-ready time of fresh processes that only set up,
    each scaled by the reference kernel timed just before and after it."""
    samples = []
    cmd = [sys.executable, str(HERE / "bench_timed.py"), "--inputs", str(inputs), "--probe"]
    for _ in range(probes):
        before = bench_poly.reference_kernel_s()
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        kernel_s = (before + bench_poly.reference_kernel_s()) / 2
        samples.append(elapsed * nominal_kernel_s / kernel_s)
    return statistics.median(samples)


def percentile(sorted_values, q):
    """Nearest-rank percentile; also returns how many samples lie beyond it."""
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(records, peak_rss_mb, setup_s):
    latencies = sorted(r["seconds"] for r in records)
    completed = sum(r["status"] in ("ok", "wrong") for r in records)
    failed = sum(r["status"] != "ok" for r in records)
    p90, beyond = percentile(latencies, 0.9)
    raw = sum(r["raw_seconds"] for r in records)
    print(f"latency samples: {len(latencies)}, beyond p90: {beyond}; "
          f"unscaled ops_per_s {completed / raw:.4f}")
    return {
        "ops_per_s": (completed / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "ok_frac": (1 - failed / len(records), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def trace_overhead(traced, plain):
    """(traced - untraced) / untraced over the ops that passed in both legs."""
    pairs = [(a["seconds"], b["seconds"]) for a, b in zip(traced, plain)
             if a["status"] == b["status"] == "ok"]
    untraced = sum(b for _, b in pairs)
    return (sum(a for a, _ in pairs) - untraced) / untraced


def run(args, settings, work):
    inputs = work / "inputs.json"
    child("bench_inputs.py", "--workload", args.workload, "--seed", args.seed, "--out", work)
    meta = json.loads(inputs.read_text())
    print(f"workload {args.workload} seed {args.seed}: python {platform.python_version()}, "
          f"nproc {os.cpu_count()}, budget {meta['budget_s']} s/op, "
          f"share of ops repeating an earlier e: {meta['repeat_share']:.3f}")
    if args.trace:
        spans = HERE / ".work" / f"spans-{args.workload}-{args.seed}.csv"
        traced = timed(inputs, work / "traced.json", trace=spans)
        plain = timed(inputs, work / "plain.json")
        records = traced["records"]
        metrics = {name: (m["value"], m["unit"]) for name, m in traced["layers"].items()}
        metrics["trace.overhead_frac"] = (
            trace_overhead(records, plain["records"]), "ratio")
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        records, peak, spent, next_pass = [], 0.0, 0.0, 0
        per_pass = meta["fresh_process_per_pass"]
        while spent < args.seconds or len(records) < MIN_OPS:
            result = timed(inputs, work / f"timed-{next_pass}.json", first_pass=next_pass,
                           max_passes=1 if per_pass else 10 ** 6,
                           target_s=args.seconds - spent, min_ops=MIN_OPS - len(records))
            records += result["records"]
            peak = max(peak, result["peak_rss_mb"])
            spent += sum(r["seconds"] for r in result["records"])
            next_pass += result["passes_run"]
        print(f"passes: {next_pass}, scaled op seconds: {spent:.3f}")
        metrics = end_to_end(records, peak,
                             setup_seconds(inputs, settings["setup_probes"],
                                           settings["reference_kernel_s"]))
    statuses = {s: sum(r["status"] == s for r in records)
                for s in ("ok", "wrong", "error", "timeout")}
    print(f"op outcomes: {statuses}")
    return {
        "correct": statuses["wrong"] == 0 and statuses["error"] == 0,
        "attempted": len(records),
        "failed": len(records) - statuses["ok"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "decide", "generator"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "purebetti" / "__init__.py").is_file():
        print("error: run from a checkout that holds src/purebetti", file=sys.stderr)
        return 2
    settings = json.loads((HERE / "settings.json").read_text())
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, settings, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
