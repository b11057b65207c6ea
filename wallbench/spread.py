#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 wallbench/spread.py --workload tpch_solo --seeds 1-10 --seconds 15

For every metric of the final JSON line it prints the median over the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. Pass --trace 1 to
look at the per-layer metrics instead of the end-to-end ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values = {}
    for seed in seed_list(args.seeds):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, proc.returncode))
            print(proc.stdout[-2000:])
            return 1
        result = json.loads(lines[-1])
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append("%s=%.4g" % (name, m["value"]))
        print("seed %d (%.1f s, correct=%s): %s" % (
            seed, time.time() - t0, result["correct"], " ".join(row)))
        sys.stdout.flush()

    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print("%-34s median=%-12.6g spread=%.4f" % (name, med, spread))
    return 0


if __name__ == "__main__":
    sys.exit(main())
