#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the PIS front doors.

Usage (from the repository root):

    python3 perfbench/run.py --workload engine_mix --seed 1 --seconds 10 --trace 0

Builds perfbench/ (its own CMake project, compiling ../src) into
.bench_build/perfbench with optimisation on, runs one measured run, and
passes the program's output through. The last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}; build logs go to
stderr. Extra flags --short and --corrupt_oracle exist for the self-test
(test_perfbench.py). Exits non-zero without a result line when the build
or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pis_perfbench")
RUN_TIMEOUT_S = 170


def build():
    generator = []
    if (shutil.which("ninja") and
            not os.path.exists(os.path.join(BUILD_DIR, "Makefile"))):
        generator = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["engine_mix", "router_q16", "server_rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--corrupt_oracle", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out_dir", os.path.join(ROOT, ".bench_run")]
    if args.short:
        cmd.append("--short")
    if args.corrupt_oracle:
        cmd.append("--corrupt_oracle")
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("perfbench: run printed no result line", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
