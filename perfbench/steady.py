#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, one seed per run, and
prints the median and quartiles of every end-to-end metric.

    python3 perfbench/steady.py [--workloads cq-go,hq-bs,served-ep]
                                [--runs 10] [--first-seed 1] [--seconds S]

Run from the root of a checkout. The spread of a metric is the distance
between its first and third quartile (statistics.quantiles(values, n=4))
as a share of its median; each is compared with a third of the bound
BENCHMARK.json gives the metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" %
                      (workload, seed, proc.returncode))
                return 1
            result = json.loads(lines[-1])
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())),
                  flush=True)
        print("%s: %d runs, failed share %s" %
              (workload, args.runs, sorted(shares)))
        print("  %-12s %12s %12s %12s %8s %8s" %
              ("metric", "q1", "median", "q3", "spread", "bound/3"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bounds[name] / 3
            steady = steady and ok
            print("  %-12s %12.6g %12.6g %12.6g %8.4f %8.4f%s" %
                  (name, q1, med, q3, spread, bounds[name] / 3,
                   "" if ok else "  WIDE"))
        steady = steady and len(shares) == 1
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
