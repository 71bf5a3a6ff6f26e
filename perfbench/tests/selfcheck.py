#!/usr/bin/env python3
"""Self-check of the benchmark: every workload, untraced and traced.

    python3 perfbench/tests/selfcheck.py [--seconds S]

Run it from the root of a source checkout.  For each workload that
perfbench/run.py offers it runs run.py once with --trace 0 and once with
--trace 1 and checks that the result line says correct: true with no failed
request, that it carries exactly the metrics BENCHMARK.json lists
(end_to_end untraced, per_layer traced) with their units, and that the
traced run wrote a non-empty span file.  Exits non-zero on the first
mismatch.
"""
import argparse
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(workload, trace, seconds):
    command = ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit("%s trace=%d exited %d:\n%s" % (workload, trace, done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(workload, trace, expected, seconds):
    result = run(workload, trace, seconds)
    label = "%s trace=%d" % (workload, trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("%s: result keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit("%s: correct=%s attempted=%s failed=%s" % (
            label, result["correct"], result["attempted"], result["failed"]))
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in expected}
    if printed != wanted:
        sys.exit("%s: metrics differ from BENCHMARK.json\n  printed %s\n  wanted  %s" % (
            label, sorted(printed.items()), sorted(wanted.items())))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            sys.exit("%s: %s is not a number" % (label, name))
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans", workload + ".csv")
        with open(spans) as f:
            if len(f.readlines()) < 2:
                sys.exit("%s: span file %s is empty" % (label, spans))
    print("ok  %-18s trace=%d  %d metrics, %d requests" % (
        workload, trace, len(printed), result["attempted"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # Every workload run.py offers, including any BENCHMARK.json leaves out.
    sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
    spec = importlib.util.spec_from_file_location("run", os.path.join(ROOT, "perfbench", "run.py"))
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    for workload in run_py.WORKLOADS:
        check(workload, 0, bench["end_to_end"], args.seconds)
        check(workload, 1, bench["per_layer"], args.seconds)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
