#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload <name> [--seeds 10] [--first-seed 1]
                                [--verbose]

Run from the root of a checkout. It runs the untraced benchmark for
BENCHMARK.json's run_seconds once per seed and, for each end-to-end
metric, prints the median of the per-seed values and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
that median, next to the metric's bound; "ok" marks a spread below a third
of the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every seed's values")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        status = "ok" if done.returncode == 0 and result["correct"] else "FAIL"
        print("seed %d: %s (%d/%d steps failed)" %
              (seed, status, result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if args.verbose:
            print("  " + " ".join("%s=%.4g" % (name, metric["value"])
                                  for name, metric in
                                  result["metrics"].items()))

    print("%-30s %14s %8s %6s" % ("metric", "median", "iqr/med", "bound"))
    for name, series in values.items():
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = "ok" if spread < bound / 3 else "WIDE"
        print("%-30s %14.6g %8.4f %6s %s" %
              (name, med, spread, "" if bound is None else bound, mark))


if __name__ == "__main__":
    sys.exit(main())
