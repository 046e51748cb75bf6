#!/usr/bin/env python3
"""Build the program and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The program is built from source
with dune (into _build/, inside the checkout), then perfbench/bench.exe
measures the workload. The last line of standard output is the result
object: {"correct", "attempted", "failed", "metrics"}; lines before it that
start with '#' are host metadata. --smoke runs every workload of
BENCHMARK.json at tiny size, traced and untraced, and checks that each
prints exactly the metrics BENCHMARK.json names, with their units.

Exit codes: 0 on a printed result, 2 on bad arguments or a CAL_* variable
in the environment, 3 when the build fails, 4 when the benchmark crashed,
timed out or printed a malformed result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
CALC = os.path.join("_build", "default", "bin", "calc.exe")
RUN_ROOT = ".perfbench-run"
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "./perfbench/bench.exe", "./bin/calc.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(3, "build failed: %s" % e)
    if proc.returncode != 0 or not os.path.exists(BENCH) or not os.path.exists(CALC):
        fail(3, "build failed (is this the root of a source checkout?)")


def pin_one_cpu():
    """Run the benchmark, and every process it starts, on one CPU.

    On a shared VM, wake-ups across CPUs made the closed-loop socket
    workload swing by 15% between runs; on one CPU the client and the
    daemon hand off locally. Verify workloads are single-domain anyway.
    Returns the number of CPUs the run could have used.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
        return len(cpus)
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(line, trace):
    """Parse the result line and check it against the contract."""
    try:
        out = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys are %s" % sorted(out)
    if not (isinstance(out["attempted"], int) and out["attempted"] >= 1
            and isinstance(out["failed"], int)):
        return None, "attempted/failed are not counts"
    want = expected_metrics(trace)
    if want is not None:
        got = {k: v.get("unit") for k, v in out["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
            return None, "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
                         "wrong unit %s" % (missing, extra, wrong)
    for k, v in out["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            return None, "metric %s has no numeric value" % k
    return out, None


def run_bench(workload, seed, seconds, trace, smoke, commit):
    rundir = os.path.join(RUN_ROOT, "%s-%d" % (workload, os.getpid()))
    cmd = [BENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--calc", CALC, "--rundir", rundir, "--commit", commit]
    if smoke:
        cmd.append("--smoke")
    os.makedirs(RUN_ROOT, exist_ok=True)
    # its own process group, so a timeout also stops the daemon it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if smoke else None,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
        if smoke and code != 0:
            sys.stderr.write(stderr)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        code = None
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass
    lines = [l for l in stdout.splitlines() if l.strip()]
    return lines, code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        fail(2, "--workload is required")
    cal = sorted(k for k in os.environ if k.startswith("CAL_"))
    if cal:
        fail(2, "refusing to run with %s set: the benchmark measures the "
                "library defaults" % ", ".join(cal))
    build()
    nproc = pin_one_cpu()
    commit = source_id()
    if args.smoke:
        sys.exit(smoke(commit))
    lines, code = run_bench(args.workload, args.seed, args.seconds, args.trace,
                            False, commit)
    print("# host " + json.dumps({"nproc": nproc, "pinned_cpus": 1}))
    for l in lines[:-1]:
        print(l)
    if code != 0 or not lines:
        fail(4, "benchmark exited with %s" % ("a timeout" if code is None else code))
    out, err = validate(lines[-1], args.trace)
    if err:
        fail(4, err)
    print(json.dumps(out), flush=True)


def smoke(commit):
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    bad = 0
    for w in workloads:
        for trace in (0, 1):
            lines, code = run_bench(w, 1, 1, trace, True, commit)
            out, err = (None, "exit code %s" % code) if code != 0 or not lines \
                else validate(lines[-1], trace)
            if out is not None and not out["correct"]:
                err = "correct is false (%d of %d failed)" % (out["failed"], out["attempted"])
            print("smoke %-24s trace=%d %s" % (w, trace, err or "ok"))
            bad += err is not None
    return 1 if bad else 0


if __name__ == "__main__":
    main()
