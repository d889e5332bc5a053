#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload net_unique --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library and the benchmark program into .bench_build/perfbench (Release);
later calls rebuild only what changed. The program's last stdout line is
the result JSON; with --trace 0 it carries the end-to-end metrics, with
--trace 1 the per-layer ones. Each result is also written, with its
provenance block, to .bench_build/results/ for perfbench/sweep.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("net_unique", "net_hot_reload", "train_ppo")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to perfbench/ (looked in %s)" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
         "-DNV_PERFBENCH_GIT_SHA=" + git_sha()],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def run_benchmark(args):
    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "nv_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("nv_perfbench timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    result_line = lines[-1] if lines else ""
    try:
        result = json.loads(result_line)
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 2)
    provenance = {}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    os.makedirs(RESULTS, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the statistics unit tests "
                        "(stats_test.cpp and test_sweep.py)")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    build()
    if args.selftest:
        native = subprocess.run([os.path.join(BUILD, "nv_perfbench_selftest")])
        python = subprocess.run(
            [sys.executable, os.path.join(HERE, "test_sweep.py")])
        sys.exit(native.returncode or python.returncode)
    sys.exit(run_benchmark(args))


if __name__ == "__main__":
    main()
