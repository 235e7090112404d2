#!/usr/bin/env python3
"""Builds and runs the threaded-engine wall-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload hotspot-evict --seed 4242 \
        --seconds 10 --trace 0

Configures perfbench/ with CMake into the build directory named by
CARGO_TARGET_DIR (default .bench_build, relative to the repository root),
builds the perfbench binary and runs it. Build output goes to stderr; the
binary's report goes to stdout, whose last line is the JSON result. Exits
non-zero if the build or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hotspot-evict", "hotspot-fit", "open-mixed")
RUN_TIMEOUT_S = 160
BUILD_JOBS = "3"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: no result line (exit code {proc.returncode})")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
