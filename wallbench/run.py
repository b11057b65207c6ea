#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark of the threaded Apuama stack.

Run from the repository root:

    python3 wallbench/run.py --workload tpch_solo --seed 1 --seconds 15 --trace 0

The first call configures and builds a Release tree (library sources
from ../src plus the benchmark) under $CARGO_TARGET_DIR/wallbench, or
.bench_build/wallbench when that variable is unset; later calls reuse
it. The benchmark's output is passed through unchanged: metric lines,
then one JSON object as the last line. The exit code is the
benchmark's, or 2 when the build fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tpch_solo", "tpch_mixed", "dashboard_zipf")
RUN_TIMEOUT_S = 170


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_wall",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                sys.stderr.write("build failed; see %s\n" % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "wallbench"))
    if not build(build_dir):
        return 2
    state_dir = os.path.join(build_dir, "state")
    os.makedirs(state_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "e2e_wall"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state", state_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark timed out after %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
