#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload W [--runs 10] [--first-seed 1]

Runs the benchmark once per seed (seeds first-seed, first-seed+1, ...),
then prints, for every end-to-end metric, its median and the distance
between the first and the third quartile as a share of the median,
next to the metric's bound in BENCHMARK.json. A benchmark is steady
when every spread is well under its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr))
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        calib = [v for l in lines if l.startswith("# host")
                 for k, v in json.loads(l[len("# host"):]).items() if k.startswith("calib")]
        if not res["correct"] or res["failed"]:
            sys.exit("seed %d: incorrect result %s" % (seed, res))
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print("seed %d: %s calib_ms=%s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items()),
            "/".join("%.1f" % c for c in calib)), flush=True)
    print("%-16s %12s %8s %8s %s" % ("metric", "median", "spread", "bound", ""))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bounds[name] / 3 else "  <-- over a third"
        print("%-16s %12.6g %8.4f %8.2f%s" % (name, med, spread, bounds[name], flag))


if __name__ == "__main__":
    main()
