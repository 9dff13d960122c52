#!/usr/bin/env python3
"""Steadiness check: runs each workload several times, one seed per run, and
prints every end-to-end metric's median, quartiles and spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Run from the repository root. The spread is (q3 - q1) / median, with the
quartiles of Python's statistics.quantiles(values, n=4). A metric whose
spread exceeds its BENCHMARK.json bound is flagged, and the command then
exits non-zero. Each workload's line also gives the median of the runs'
host probe (a fixed loop each run times before its workload; see README),
so that two sets of runs can be told apart by host speed. The closing lines
suggest a bound per metric by the rule that set the committed ones: three
times the largest spread over the workloads, rounded up to a twentieth and
held within [0.05, 0.25]; setup_s always takes the largest bound, 0.25.
The share of failed operations is printed per workload; it must be the same
in every run.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE = re.compile(r"host probe ([0-9.]+) ms")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    worst = {}
    flagged = []
    for w in spec["workloads"]:
        name = w["name"]
        results = []
        probes = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.stderr.write(run.stderr[-2000:])
                sys.exit(f"{name} seed {seed}: run failed (exit code {run.returncode})")
            results.append(json.loads(lines[-1]))
            probes += [float(p) for p in PROBE.findall(run.stderr)]
            print(f"  {name} seed {seed}: done", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        probe = f"{statistics.median(probes):.1f} ms" if probes else "not printed"
        print(f"{name}: {args.runs} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}, host probe {probe}")
        print(f"  {'metric':14s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>7s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            worst[m["name"]] = max(worst.get(m["name"], 0.0), spread)
            over = spread > m["bound"]
            if over:
                flagged.append(f"{name} {m['name']}")
            print(f"  {m['name']:14s} {q2:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:7.3f} {m['bound']:6.2f}{'  OVER BOUND' if over else ''}")

    print("suggested bounds:")
    for m in spec["end_to_end"]:
        if m["name"] == "setup_s":
            bound = 0.25
        else:
            bound = min(0.25, max(0.05, math.ceil(60 * worst[m["name"]]) / 20))
        print(f"  {m['name']:14s} {bound:.2f} (committed {m['bound']:.2f})")
    if flagged:
        print("over bound: " + ", ".join(flagged))
        sys.exit(1)


if __name__ == "__main__":
    main()
