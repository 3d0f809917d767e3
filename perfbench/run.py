#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload concurrent-cold --seed 1 --seconds 40 --trace 0

The workload's parameters come from perfbench/workloads.json. The build
goes to .bench_build/ under the repository root; its first run compiles the
engine. Build output goes to stderr; the benchmark's report goes to stdout
and its last line is the JSON result. The result's metric names and units are
checked against BENCHMARK.json before the exit code is returned.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark and its unit test, then runs the test."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "perfbench", "perfbench_stats_test"],
        [str(BUILD / "perfbench_stats_test")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(1)


def workload_flags(spec, name):
    w = spec["workloads"][name]["writes"]
    return ["--merged-ops", str(w["merged_ops"]),
            "--standing-ops", str(w["standing_ops"])]


def check_result(line, trace):
    """The result line carries exactly BENCHMARK.json's metrics for this mode."""
    try:
        result = json.loads(line)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ValueError, OSError) as e:
        log(f"cannot check the result: {e}")
        return False
    wanted = {m["name"]: m["unit"]
              for m in declared["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != wanted:
        log(f"result metrics {sorted(got.items())} != BENCHMARK.json {sorted(wanted.items())}")
        return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in spec["workloads"]:
        log(f"unknown workload {args.workload!r}; known: {sorted(spec['workloads'])}")
        sys.exit(2)
    build()

    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT)] + workload_flags(spec, args.workload)
    try:
        # A run takes under a minute; a hung one is stopped well before the
        # three minutes a run may take.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within 170 s; stopped")
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines or not check_result(lines[-1], args.trace == 1):
        sys.exit(1)


if __name__ == "__main__":
    main()
