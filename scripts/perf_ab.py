#!/usr/bin/env python3
"""A/B of the repository benchmark: a git revision against the working tree.

    python3 scripts/perf_ab.py --rev REV --workload W [--pairs 10]
                               [--first-seed 1] [--dir DIR]

Run from the root of the checkout. REV is exported with `git archive` into
DIR (default: a directory under the system's temporary directory named
after the commit), outside the checkout, and reused by later calls for the
same commit; the working tree itself is the other side, uncommitted
changes included. Each side is built and measured by its own
perfbench/run.py, untraced, for the run length of BENCHMARK.json. Pairs
alternate which side runs first: REV first on odd pairs, the working tree
first on even ones; both runs of a pair use the same seed
(first-seed + pair - 1).

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, how many pairs the working tree won (ties count for
neither) and a verdict:

  gain          the working tree won at least nine tenths of the pairs and
                the medians differ, its way, by more than the distance
                between REV's quartiles;
  within bound  the working tree's median is not worse than REV's by more
                than the metric's bound;
  WORSE         it is, and REV's own quartile spread is inside the bound;
  unresolved    REV's quartile spread is wider than the bound, so neither
                of the two above can be told, unless every run of one side
                beats every run of the other.

A run that fails, or reports failed outputs, stops the script with exit
code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def git(*args):
    return subprocess.run(["git"] + list(args), check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, where):
    """Export REV into a fresh directory outside the checkout; reuse it."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    root = os.path.abspath(".")
    target = os.path.abspath(where or os.path.join(tempfile.gettempdir(),
                                                   "perf-ab-" + sha[:12]))
    if os.path.commonpath([root, target]) == root:
        sys.exit("perf_ab: %s is inside the checkout" % target)
    stamp = os.path.join(target, ".perf-ab-rev")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == sha:
                return target, sha
        sys.exit("perf_ab: %s holds another revision" % target)
    os.makedirs(target, exist_ok=True)
    if os.listdir(target):
        sys.exit("perf_ab: %s is not empty" % target)
    archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", target], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit("perf_ab: git archive %s failed" % sha)
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return target, sha


def run(tree, workload, seed, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("perf_ab: %s in %s: exit %d\n%s"
                 % (" ".join(cmd), tree, out.returncode, out.stderr[-2000:]))
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit("perf_ab: %s failed %d of %d outputs"
                 % (tree, res["failed"], res["attempted"]))
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def verdict(metric, base, new):
    lower = metric["better"] == "lower"
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    wins = sum(1 for b, n in zip(base, new) if (n < b if lower else n > b))
    gap = (bmed - nmed) if lower else (nmed - bmed)  # > 0: the tree is better
    change = (nmed - bmed) / bmed if bmed else 0.0
    worse = change if lower else -change
    spread = (bq3 - bq1) / bmed if bmed else 0.0
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    all_worse = (min(new) > max(base)) if lower else (max(new) < min(base))
    if 10 * wins >= 9 * len(base) and gap > bq3 - bq1:
        v = "gain"
    elif spread > metric["bound"] and not (all_better or all_worse):
        v = "unresolved"
    elif worse > metric["bound"]:
        v = "WORSE"
    else:
        v = "within bound"
    return wins, change, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--dir", help="where to export REV (outside the checkout)")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("perf_ab: unknown workload %s" % args.workload)
    seconds = spec["run_seconds"]
    base_tree, sha = export(args.rev, args.dir)
    print("# rev %s in %s against the working tree, %s, %d pairs of %gs runs"
          % (sha[:12], base_tree, args.workload, args.pairs, seconds), flush=True)
    names = [m["name"] for m in spec["end_to_end"]]
    base, new = {n: [] for n in names}, {n: [] for n in names}
    for p in range(1, args.pairs + 1):
        seed = args.first_seed + p - 1
        sides = [("rev", base_tree, base), ("tree", ".", new)]
        if p % 2 == 0:
            sides.reverse()
        for label, tree, store in sides:
            m = run(tree, args.workload, seed, seconds)
            for n in names:
                store[n].append(m[n])
            print("pair %d seed %d %-4s %s" % (p, seed, label, " ".join(
                "%s=%.6g" % (n, m[n]) for n in names)), flush=True)
    print("%-16s %-32s %-32s %6s %8s %s"
          % ("metric", "rev median [q1, q3]", "tree median [q1, q3]", "wins",
             "change", "verdict"))
    for metric in spec["end_to_end"]:
        n = metric["name"]
        bq1, bmed, bq3 = quartiles(base[n])
        nq1, nmed, nq3 = quartiles(new[n])
        wins, change, v = verdict(metric, base[n], new[n])
        print("%-16s %-32s %-32s %6s %+7.1f%% %s" % (
            n, "%.6g [%.6g, %.6g]" % (bmed, bq1, bq3),
            "%.6g [%.6g, %.6g]" % (nmed, nq1, nq3),
            "%d/%d" % (wins, args.pairs), 100 * change, v))


if __name__ == "__main__":
    main()
