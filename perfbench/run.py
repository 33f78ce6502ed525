#!/usr/bin/env python3
"""Build the ProFess benchmark harness from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness is configured and built (Release) under .bench_build/ in the
checkout, then run once; its stdout is passed through, and its last line
is the JSON result.  Build output goes to stderr.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "profess_perfbench")
PINS = os.path.join(HERE, "pins.txt")
TMP = os.path.join(ROOT, ".bench_build", "perfbench_tmp")
# The telemetry layer looks for .git/HEAD in the working directory and
# up to five directories above it (telemetry::gitHeadSha).  Running
# five levels below the checkout root keeps those reads inside it.
RUN_DIR = os.path.join(ROOT, ".bench_build", "perfbench", "run", "a", "b")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "system.hh")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "profess_perfbench"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--pins", PINS, "--tmp", TMP, "--git-sha", git_sha()]
    os.makedirs(RUN_DIR, exist_ok=True)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           cwd=RUN_DIR, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % RUN_TIMEOUT_S, 1)
    # An incorrect result is still printed, with a failing exit code.
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    try:
        json.loads(r.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        fail("harness printed no result (exit code %d)" % r.returncode, 1)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
