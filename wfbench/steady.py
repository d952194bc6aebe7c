#!/usr/bin/env python3
"""Steadiness check: run each workload N times, each with its own seed, and
print every end-to-end metric's median, quartiles and spread against the
bound BENCHMARK.json gives it.

    python3 wfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]

Run from the checkout root. The spread is the distance between the first and
the third quartile (statistics.quantiles(values, n=4)) as a share of the
median; a metric is steady when its spread is within its bound. Each run
lasts BENCHMARK.json's run_seconds. It also checks that every run is
correct and that the share of failed operations is the same in every run.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "wfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    # The host calibration loop's reading, kept beside the result so host
    # drift shows next to the metrics it moves.
    calib = re.search(r"host\.calib_ms=([0-9.]+)", done.stdout)
    result["calib_ms"] = float(calib.group(1)) if calib else 0.0
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: calib_ms={results[-1]['calib_ms']:.4g} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: correct={correct} failed/attempted={sorted(shares)}")
        steady = steady and correct and len(shares) == 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread <= bound
            steady = steady and ok
            print(f"  {name:18s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:7.2%} bound={bound:.0%} "
                  f"{'ok' if ok else 'TOO WIDE'}", flush=True)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
