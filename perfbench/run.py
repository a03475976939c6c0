#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One run, from the root of the repository:

    python3 perfbench/run.py --workload serve_decode --seed 1 --seconds 20 --trace 0

builds the library and the benchmark from source into .bench_build/ (a
no-op when up to date), runs one workload, and prints the program's report;
the last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. --trace 1 makes the traced
run, which reports the per-layer metrics instead of the end-to-end ones.

    python3 perfbench/run.py --workload store_zipf --seeds 1,2,3,4,5 --seconds 20

runs once per seed and prints, per metric, the median, the quartiles and
the spread (quartile distance over median) across the runs.

    python3 perfbench/run.py --selftest

builds and runs the tests of the benchmark's own helpers.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "cmake")
WORKLOADS = ("serve_decode", "serve_encode", "store_zipf")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds into .bench_build/cmake; False on failure."""
    cmds = [["cmake", "--build", BUILD_DIR, "-j4", "--target", "perfbench",
             "perfbench_selftest"]]
    # Once configured, the build step re-runs configuration by itself when a
    # CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        cmds.insert(0, configure)
    for cmd in cmds:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(workload, seed, seconds, trace):
    """Runs the program; returns (exit code, stdout text)."""
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", BUILD, "--commit", commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1, ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    return res if isinstance(res, dict) and "metrics" in res else None


def summarize(workload, seeds, seconds, trace):
    """Median, quartiles and spread of every metric across one run per seed."""
    values = {}
    for seed in seeds:
        code, out = run_once(workload, seed, seconds, trace)
        res = result_of(out)
        if code != 0 or res is None:
            log("perfbench: seed %d failed" % seed)
            return 1
        for line in out.splitlines()[:-1]:
            print(line)
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, res["correct"], res["attempted"], res["failed"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    print("%-36s %12s %12s %12s %8s  unit" % ("metric", "median", "q1", "q3", "spread"))
    for name in sorted(values):
        unit, v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else float("nan")
        print("%-36s %12.6g %12.6g %12.6g %8.4f  %s  [%s]" %
              (name, med, q1, q3, spread, unit, " ".join("%.4g" % x for x in v)))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", help="comma-separated seeds: summarize across runs")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
        return summarize(args.workload, seeds, args.seconds, args.trace)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or result_of(out) is None:
        log("perfbench: run failed (exit %d)" % code)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
