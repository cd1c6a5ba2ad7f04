#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs each workload once per seed and
reports, for every end-to-end metric, the median and the spread between the
first and third quartile as a share of the median (statistics.quantiles,
n=4), next to the metric's bound in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads table1-loop,stubbyd-zipf --seeds 10

Runs are sequential, one process at a time. A spread above a third of the
bound is flagged (setup_s is exempt from the spread rule, but shown).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  check=False)
            result = json.loads(done.stdout.strip().split("\n")[-1])
            if done.returncode != 0 or not result["correct"]:
                print("%s seed %d: FAILED" % (workload, seed))
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        print("\n%s over %d seeds:" % (workload, args.seeds))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above bound/3"
                ok = False
            print("  %-18s median %-14.6g spread %.4f  bound %.2f%s"
                  % (name, med, spread, bounds[name], flag))
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
