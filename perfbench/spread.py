#!/usr/bin/env python3
"""Runs one workload once per seed and reports how far each metric spreads.

    python3 perfbench/spread.py --workload ls2 --seeds 1 2 3 4 5

Run it from the repository root. Every run is untraced and lasts
BENCHMARK.json's run_seconds, the setting the bounds apply to. For every
end-to-end metric it prints the median of the per-seed values, the spread
(the distance between the first and the third quartile,
statistics.quantiles(values, n=4), as a share of the median) and the bound
from BENCHMARK.json, and flags a spread above a third of the bound. Exits 1
if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        run = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=False)
        if run.returncode != 0:
            print("seed %d failed (exit %d)" % (seed, run.returncode))
            return 1
        result = json.loads(run.stdout.splitlines()[-1])
        print("seed %d: %d submissions, %s" % (
            seed, result["attempted"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in result["metrics"].items())))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("%-28s %16s %9s %7s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(median) if median else float("nan")
        bound = bounds[name]
        flag = ""
        if spread > bound / 3:
            flag = "  above bound/3" if spread <= bound else "  ABOVE BOUND"
        print("%-28s %16.6g %9.4f %7s%s" % (name, median, spread, bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
