#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload serve_static --seed 1 --seconds 20 --trace 0

The program and the benchmark are built from source into $CARGO_TARGET_DIR
(default .bench_build) with CMake. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics; with --trace 1 they are the
per-layer metrics of a traced run, and the run is preceded by an untraced
run of the same seed so the tracing overhead can be printed.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("serve_static", "serve_live", "train_roi")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    src = os.path.join(root, "e2ebench")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    b = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        return None
    exe = os.path.join(build_dir, "e2ebench")
    return exe if os.path.exists(exe) else None


def run_once(exe, out_dir, workload, seed, seconds, trace):
    """Runs the benchmark binary; echoes its report; returns the RESULT dict."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return None
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0:
        log("benchmark exited with code %d" % proc.returncode)
        return None
    return result


def print_overhead(untraced, traced):
    print("\ntracing overhead (traced vs untraced run, same seed)")
    print("%-16s %14s %14s %9s" % ("metric", "untraced", "traced", "change"))
    for name, m in sorted(untraced["e2e"].items()):
        t = traced["e2e"].get(name, {}).get("value")
        u = m["value"]
        if t is None:
            continue
        change = (t - u) / u * 100.0 if u else 0.0
        print("%-16s %14.6g %14.6g %8.1f%%" % (name, u, t, change))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, build_dir))
    exe = build(root, build_dir)
    if exe is None:
        log("build failed")
        return 1
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    if args.trace:
        untraced = run_once(exe, out_dir, args.workload, args.seed,
                            args.seconds, False)
        traced = run_once(exe, out_dir, args.workload, args.seed,
                          args.seconds, True)
        if untraced is None or traced is None:
            return 1
        print_overhead(untraced, traced)
        result, metrics = traced, traced["layer"]
    else:
        result = run_once(exe, out_dir, args.workload, args.seed,
                          args.seconds, False)
        if result is None:
            return 1
        metrics = result["e2e"]
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
