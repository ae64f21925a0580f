#!/usr/bin/env python3
"""Remakes the stored oracle of the in-process workloads.

    python3 perfbench/remake_oracle.py [--workloads cq-go,hq-bs]

Run from the root of a checkout. It builds the benchmark, generates each
workload's data graph, and counts every query with the baselines (pb_oracle:
TM within 20 s, else JM within 20M intermediate tuples) into
perfbench/oracle/<workload>.txt. It takes about two minutes: on bs@0.003
HQ13, HQ14, HQ18 and HQ19 wait out TM's budget before JM answers them, and
HQ16 exhausts both (README.md). The served workload's oracle depends on the
run's seed, so run.py computes it per run instead.
"""

import argparse
import os
import shutil
import sys

import run


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default="cq-go,hq-bs")
    args = p.parse_args()
    out = run.build()
    if out is None:
        return 1
    for workload in args.workloads.split(","):
        data = os.path.join(out, "remake", workload)
        shutil.rmtree(data, ignore_errors=True)
        os.makedirs(data)
        ok = (run.prepare(out, workload, data) and
              run.call([os.path.join(out, "pb_oracle"), workload, data,
                        run.stored_oracle(workload)], timeout=3600))
        shutil.rmtree(data, ignore_errors=True)
        if not ok:
            return 1
        print("wrote " + run.stored_oracle(workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
