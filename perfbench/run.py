#!/usr/bin/env python3
"""Builds and runs the virtine-stack benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  The first call configures and
builds perfbench/ (and the repository sources it compiles) into
.bench_build/; later calls rebuild incrementally.  Build output goes to
stderr; the last line of stdout is the run's JSON result.  A traced run
also writes its spans to .bench_build/spans/<workload>.csv.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("http_keepalive", "http_connect", "serverless_burst")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "wasp", "runtime.h")):
        fail("repository sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        span_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(span_dir, exist_ok=True)
        command += ["--span-file", os.path.join(span_dir, args.workload + ".csv")]
    sys.stdout.flush()
    with subprocess.Popen(command, cwd=ROOT) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
            sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
