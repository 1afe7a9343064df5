#!/usr/bin/env python3
"""Run the simulator benchmark for one workload.

    python3 perfbench/run.py --workload seq_write --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout.  It builds perfbench/bench.exe
(and the simulator libraries it links) into .bench_build/, runs the
workload for --seconds of host time, and passes the program's output
through.  The last line of standard output is one JSON object with the
keys "correct", "attempted", "failed" and "metrics".  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
# The program measures for --seconds, plus set-up and checks; anything
# far beyond that is a hang.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        candidate = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
        if os.access(candidate, os.X_OK):
            dune = candidate
    if dune is None:
        fail("dune is not on PATH")
    return dune


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune-project or lib/ here: run from the root of a simulator checkout")
    # The shared dune cache lives outside the checkout: leave it alone.
    cmd = [find_dune(), "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "--cache=disabled", "perfbench/bench.exe"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout or "")
        fail(f"bench.exe did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        fail(f"bench.exe exited with {proc.returncode} and no result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
