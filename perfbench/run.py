#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1-loop --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload stubbyd-zipf --seed 1 --selfcheck

Configures perfbench/ with CMake into .bench_build/ (Release), builds the
`perfbench` binary and the Stubby library from ../src, runs the binary, and
prints its report. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics holds every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1), each as {"value", "unit"}. Per-layer metrics of a layer the
workload never calls read 0.

Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Stubby source tree next to perfbench/ (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="compare deterministic metrics of the shortened "
                             "configuration at 1 thread and at nproc threads")
    args = parser.parse_args()

    build()
    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.selfcheck:
        cmd.append("--selfcheck")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 and not args.selfcheck:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark binary exited with code %d" % done.returncode)
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark binary printed no result line")
    for line in lines[:-1]:
        print(line)
    if args.selfcheck:
        print(json.dumps(raw))
        sys.exit(done.returncode)

    metrics = {}
    correct = bool(raw["correct"])
    for m in declared_metrics(args.trace):
        got = raw["metrics"].get(m["name"])
        if got is None and args.trace:
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            print("perfbench: metric %s missing or in the wrong unit"
                  % m["name"], file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = got
    extra = sorted(set(raw["metrics"]) - set(metrics))
    if extra:
        print("not in BENCHMARK.json: " + ", ".join(
            "%s=%.6g" % (k, raw["metrics"][k]["value"]) for k in extra))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
