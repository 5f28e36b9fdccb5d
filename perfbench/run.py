#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. It builds the engine and the load
generator (loadgen.cc) from the checkout's sources into
.bench_build/perfbench (CMake), runs it once, checks that every collected
result matched its reference answer, and prints the metrics: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1. The
last line of standard output is one JSON object {"correct", "attempted",
"failed", "metrics"}. NOTES.md describes the workloads and what each
metric should move.
"""

import argparse
import json
import os
import subprocess
import sys

import analysis

WORKLOADS = ("scan-share", "star-gqp-disk", "star-qc-mem")

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")

# One run must end within 180 s; leave room for the analysis.
LOADGEN_TIMEOUT_S = 165


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the load generator; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_loadgen", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit(f"build failed: {' '.join(step)}")
    return os.path.join(BUILD_DIR, "perfbench_loadgen")


def run_loadgen(loadgen, args):
    stem = os.path.join(BUILD_DIR, f"{args.workload}-{args.seed}")
    raw_path, trace_path = stem + ".raw.json", stem + ".trace.json"
    command = [loadgen, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--out", raw_path]
    if args.trace:
        command += ["--trace-out", trace_path]
    for path in (raw_path, trace_path):
        if os.path.exists(path):
            os.remove(path)  # never read a previous run's output
    try:
        done = subprocess.run(command, stdout=sys.stderr,
                              timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"load generator exceeded {LOADGEN_TIMEOUT_S} s")
    if not os.path.exists(raw_path):
        raise SystemExit(
            f"load generator exited {done.returncode} without output")
    with open(raw_path) as f:
        raw = json.load(f)
    events = []
    if args.trace:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
    return done.returncode, raw, events


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    loadgen = build()
    code, raw, events = run_loadgen(loadgen, args)

    phases = [raw["timed"]] + ([raw["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] + p["mismatched"] for p in phases)
    in_flight = raw["threads"] * raw["wave"]
    print(f"workload {raw['workload']}  seed {raw['seed']}  "
          f"generator threads {raw['threads']}  queries in flight "
          f"{in_flight}  distinct plans {raw['plans']}  data pages "
          f"{raw['data_pages']}  buffer-pool frames {raw['frames']}")

    if args.trace:
        # Context only: the untraced phase's median latency, beside the
        # engine's own query.latency estimate.
        p50, _, _ = analysis.percentile(raw["timed"]["latency_us"], 0.50)
        print(f"untraced phase: latency_p50_ms {p50 / 1e3:.3f} ms  "
              f"engine query.latency p50 "
              f"{raw['timed']['snapshot'].get('query.latency.p50', 0)} us")
        metrics = analysis.per_layer(raw, events)
        spans_ratio = metrics["trace.query_spans_ratio"][0]
        if spans_ratio != 1.0:
            log(f"traced run lost query spans: ratio {spans_ratio}")
            code = code or 1
        wrapped = analysis.threads_with_lost_events(
            events, raw["trace_buffer_events"], raw["traced"]["t0_us"])
        if wrapped:
            log(f"trace rings of threads {wrapped} wrapped in the window")
            code = code or 1
    else:
        metrics, notes = analysis.end_to_end(raw)
        print(f"latency samples {notes['latency_samples']}  "
              f"latency_p99_ms {notes['latency_p99_ms']:.3f} ms (median of "
              f"{notes['p99_windows']} windows, each >= "
              f"{notes['p99_samples_beyond']} samples beyond)  error_rate "
              f"{notes['error_rate']:.6f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6f} {unit}")

    result = {
        "correct": failed == 0 and code == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
