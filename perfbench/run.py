#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload passive_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (and with it the library) into .bench_build/; later runs only
rebuild what changed. The C++ binary measures; this script prints every
metric it measured as a table (name, value, unit, sample count) and then,
as the last line, the result object restricted to the metrics that
BENCHMARK.json declares for the mode: the end_to_end ones with --trace 0,
the per_layer ones with --trace 1. A per-layer metric of a layer the
workload never reaches reads 0. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Leaves room under the 180 s a run may take once the binary is built.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; False when that fails."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", str(os.cpu_count() or 1)]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    return benchmark["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long run on small inputs")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one served answer (serve_sessions)")
    args = parser.parse_args()

    started = time.monotonic()
    if not build():
        log("build failed")
        return 1
    log("build ready after %.1f s" % (time.monotonic() - started))

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        span_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(span_dir, exist_ok=True)
        command += ["--span-out", os.path.join(
            span_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        command.append("--smoke")
    if args.inject_fault:
        command.append("--inject-fault")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log("benchmark exited with %d" % run.returncode)
        return run.returncode or 1
    for line in lines[:-1]:
        print(line)
    outcome = json.loads(lines[-1])
    measured = outcome["metrics"]

    print("seed %d, workload %s, trace %d: correct=%s attempted=%d failed=%d"
          % (args.seed, args.workload, args.trace, outcome["correct"],
             outcome["attempted"], outcome["failed"]))
    for violation in outcome["violations"]:
        print("  check failed: " + violation)
    for name in sorted(measured):
        metric = measured[name]
        # null: a latency population that failed operations pushed to
        # infinity.
        value = metric["value"] if metric["value"] is not None else math.inf
        print("  %-46s %16.6g %-9s n=%d" % (name, value, metric["unit"],
                                            metric["samples"]))

    metrics = {}
    for spec in declared_metrics(args.trace):
        name = spec["name"]
        metric = measured.get(name)
        if metric is None and args.trace:
            metric = {"value": 0, "unit": spec["unit"]}
        if metric is None or metric["unit"] != spec["unit"]:
            log("metric %s missing or not in %s" % (name, spec["unit"]))
            return 1
        metrics[name] = {"value": metric["value"], "unit": spec["unit"]}
    print(json.dumps({"correct": outcome["correct"],
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
