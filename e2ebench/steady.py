#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs each workload once per seed through e2ebench/run.py and prints, per
metric, the median, the quartiles and the quartile spread as a share of the
median, next to the metric's bound from BENCHMARK.json. The bounds there
were set from this output. Run from the repository root:

    python3 e2ebench/steady.py --seeds 1-10 --seconds 25
    python3 e2ebench/steady.py --workloads serve_live --seeds 3,7,11
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="serve_static,serve_live,train_roi")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    seconds = args.seconds or bench.get("run_seconds", 25)
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    here = os.path.dirname(os.path.abspath(__file__))

    for workload in args.workloads.split(","):
        values = {}
        shares = set()
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" % (workload, seed, proc.returncode))
                tail = [l for l in lines if "FAILED" in l]
                for l in tail:
                    print("   ", l)
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print("%s seed %d: outputs incorrect" % (workload, seed))
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        fail_shares = sorted({f / a for f, a in shares if a})
        print("\n%s: %d runs, failed share(s) %s" % (
            workload, max((len(v) for v in values.values()), default=0), fail_shares))
        print("%-34s %12s %12s %12s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(values):
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print("%-34s %12.6g %12.6g %12.6g %7.1f%% %7s" % (
                name, med, q1, q3, spread * 100, "" if bound is None else "%.0f%%" % (bound * 100)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
