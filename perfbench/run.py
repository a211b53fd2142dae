#!/usr/bin/env python3
# Copyright 2026 The SkipNode Authors.
# Licensed under the Apache License, Version 2.0.
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench (and the library under src/) from source into
.bench_build/perfbench, runs one workload, checks that the result line names
every metric BENCHMARK.json declares for the mode with its declared unit,
and prints that line last. `--workload all` runs every workload in turn and
prints one table per workload plus a combined result line.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "skipnode_perfbench")
RUN_TIMEOUT_S = 170


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(spec, trace):
    """{name: unit} of the metrics a run in this mode must print."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, expected):
    """Problems with one result line against {name: unit}; empty when valid."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return ["result line is not JSON: %s" % e]
    if not isinstance(result, dict):
        return ["result line is not a JSON object"]
    problems = []
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        problems.append("result keys %s, expected %s"
                        % (sorted(result), sorted(keys)))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("'correct' is not a boolean")
    for key, low in (("attempted", 1), ("failed", 0)):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            problems.append("'%s' is not a whole number >= %d" % (key, low))
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["'metrics' is not an object"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append("metric %s is missing" % name)
    for name in sorted(set(metrics) - set(expected)):
        problems.append("metric %s is not declared" % name)
    for name in sorted(set(expected) & set(metrics)):
        entry = metrics[name]
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append("metric %s needs exactly a value and a unit" % name)
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append("metric %s has no finite value" % name)
        if entry["unit"] != expected[name]:
            problems.append("metric %s has unit %r, declared %r"
                            % (name, entry["unit"], expected[name]))
    return problems


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources at %s; run from a checkout "
                           "of the repository" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "skipnode_perfbench"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: %s" % " ".join(step))


def run_one(workload, seed, seconds, trace):
    """Runs the binary; returns (detail lines, result line)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (workload, done.returncode))
    return lines[:-1], lines[-1]


def print_table(workload, line):
    result = json.loads(line)
    print("== %s: correct=%s attempted=%d failed=%d failed_frac=%.6f"
          % (workload, result["correct"], result["attempted"],
             result["failed"], result["failed"] / result["attempted"]))
    for name, entry in result["metrics"].items():
        print("   %-32s %18.6f %s" % (name, entry["value"], entry["unit"]))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        expected = declared_metrics(spec, args.trace)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise RuntimeError("unknown workload %r (have %s)"
                               % (args.workload, ", ".join(names)))
        build()
        workloads = names if args.workload == "all" else [args.workload]
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        last = None
        for workload in workloads:
            detail, last = run_one(workload, args.seed, args.seconds,
                                   args.trace)
            problems = check_result(last, expected)
            if problems:
                raise RuntimeError("%s: %s" % (workload, "; ".join(problems)))
            if len(workloads) == 1:
                print("\n".join(detail))
                break
            print_table(workload, last)
            result = json.loads(last)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                combined["metrics"]["%s.%s" % (workload, name)] = entry
        if len(workloads) > 1:
            last = json.dumps(combined)
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(last, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
