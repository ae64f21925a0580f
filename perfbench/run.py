#!/usr/bin/env python3
"""End-to-end benchmark of rigpm: one run of one workload.

    python3 perfbench/run.py --workload cq-go|hq-bs|served-ep --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. It builds the program from source into
.bench_build (perfbench/CMakeLists.txt), prepares the workload's inputs in
processes of their own (pb_prep, pb_oracle), runs the measured process
(pb_bench), checks the first occurrences of every in-process query with an
independent checker (pb_check), and prints one JSON object as the last line
of standard output. It exits non-zero, without that line, when it cannot
build or prepare, and with "correct": false when a check fails.

The data graph, the engine snapshot and the write batches are made afresh
by every run, with the program just built, so no run serves inputs an
earlier build wrote. Only the served oracle, four seconds of counting, is
kept between runs, under a digest of everything it is computed from.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
WORKLOADS = ("cq-go", "hq-bs", "served-ep")
SERVED = ("served-ep",)


def run_seconds():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def call(args, timeout=900):
    """Runs a helper; its output goes to stderr. False when it fails."""
    try:
        return subprocess.run(args, stdout=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        log("%s: %s" % (args[0], e))
        return False


def build():
    # The Makefile appears only once a configure has succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        if not call(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    if not call(["cmake", "--build", BUILD, "-j4"]):
        return None
    return BUILD


def prepare(out, workload, data):
    """Writes the data graph and engine snapshot into `data`."""
    return call([os.path.join(out, "pb_prep"), "base", workload, data])


def make_batches(out, workload, data, seed):
    """Writes the seed's write batches into `data`; their path, or None."""
    if not call([os.path.join(out, "pb_prep"), "batches", workload, data,
                 str(seed)]):
        return None
    return os.path.join(data, "batches-%d.txt" % seed)


def stored_oracle(workload):
    return os.path.join(HERE, "oracle", workload + ".txt")


def served_oracle(out, workload, data, batches):
    """The served oracle, kept under a digest of the oracle program and of
    every input it reads, so that a change to any of them remakes it."""
    digest = hashlib.sha256()
    for path in (os.path.join(out, "pb_oracle"),
                 os.path.join(data, "engine.snap"),
                 os.path.join(data, "graph.txt"), batches):
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    cache = os.path.join(out, "oracle")
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, "%s-%s.txt" % (workload,
                                              digest.hexdigest()[:32]))
    if os.path.exists(path):
        return path
    if not call([os.path.join(out, "pb_oracle"), workload, data, path + ".tmp",
                 "--batches", batches]):
        return None
    os.rename(path + ".tmp", path)
    return path


def run(args):
    out = build()
    if out is None:
        log("build failed")
        return 1
    # Relative to the checkout, which is every process's working directory:
    # the daemon's unix socket lives here, and socket paths are short.
    run_dir = os.path.join(
        out, "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return measure(args, out, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, out, data):
    """Prepares the inputs in `data` (the run's own directory), runs
    pb_bench there and prints its result."""
    if not prepare(out, args.workload, data):
        log("input preparation failed")
        return 1
    batches = None
    if args.workload in SERVED or args.trace:
        batches = make_batches(out, args.workload, data, args.seed)
        if batches is None:
            log("batch preparation failed")
            return 1
    if args.workload in SERVED:
        oracle = served_oracle(out, args.workload, data, batches)
    else:
        oracle = stored_oracle(args.workload)
    if oracle is None or not os.path.exists(oracle):
        log("no oracle for %s" % args.workload)
        return 1

    cmd = [os.path.join(out, "pb_bench"), "--workload", args.workload,
           "--run", data, "--oracle", oracle,
           "--serve", os.path.join(out, "rigpm_serve"),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if batches:
        cmd += ["--batches", batches]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        log("pb_bench did not finish in time")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("pb_bench printed no result (exit %d)" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if proc.returncode != 0:
        result["correct"] = False
    if args.workload not in SERVED and result["correct"]:
        if not call([os.path.join(out, "pb_check"),
                     os.path.join(data, "graph.txt"),
                     os.path.join(data, "tuples.txt")]):
            result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = run_seconds()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
