#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default `.bench_build`), offline, against the program's
crates by path. Build output and progress go to standard error; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: every end-to-end metric of BENCHMARK.json with
`--trace 0`, every per-layer metric with `--trace 1`. A per-layer metric of a
layer the workload never enters reads 0. The exit code is 0 only when the
build succeeded, the run finished and every correctness check held.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    # One glibc malloc arena: with one per thread, the peak resident set
    # moved by 2 MB from run to run with the arenas the threads were given.
    run_env = dict(env, MALLOC_ARENA_MAX="1")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")

    run = subprocess.run(
        [os.path.join(target, "release", "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", os.path.join(target, "perfbench-work")],
        stdout=subprocess.PIPE, text=True, env=run_env)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"the run printed no result (exit code {run.returncode})")
    result = json.loads(lines[-1])

    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
