#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports median and quartiles.

    python3 perfbench/sweep.py --workloads net_unique train_ppo --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --trace 1
    python3 perfbench/sweep.py --compare old.json new.json

For each workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json. A spread at or above a third of
the bound is marked "WIDE". --save writes the raw values so two sweeps can
be compared with --compare, which checks each median against the bound in
the metric's "better" direction. Results whose provenance differs in
thread count (nproc, hardware_concurrency) or kernel ISA are flagged:
their numbers are not comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROVENANCE_KEYS = ("nproc", "hardware_concurrency", "kernel_isa")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    """(q3 - q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def summarize(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"median": v, "q1": v, "q3": v, "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread(values)}


def worse_by(old, new, better):
    """Share by which new is worse than old (negative: better)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return -change if better == "higher" else change


def provenance_mismatch(provenances):
    """Keys whose values differ across runs (thread counts, ISA)."""
    out = {}
    for key in PROVENANCE_KEYS:
        seen = sorted({str(p.get(key)) for p in provenances if p})
        if len(seen) > 1:
            out[key] = seen
    return out


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    wall = time.time() - start
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    provenance = {}
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    return proc.returncode, result, provenance, wall, proc.stdout + proc.stderr


def report(bench, data, trace):
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    ok = True
    for workload, runs in data.items():
        print("\n== %s (%d runs)" % (workload, len(runs["walls"])))
        mismatch = provenance_mismatch(runs["provenance"])
        if mismatch:
            ok = False
            print("  FLAG: runs differ in %s; not comparable" % mismatch)
        for m in metrics:
            vals = runs["values"].get(m["name"], [])
            if not vals:
                print("  %-28s MISSING" % m["name"])
                ok = False
                continue
            s = summarize(vals)
            bound = m.get("bound")
            mark = ""
            if bound is not None:
                if s["spread"] >= bound / 3:
                    mark = "  WIDE (bound %.3g)" % bound
                    ok = False
            print("  %-28s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s%s"
                  % (m["name"], s["median"], s["q1"], s["q3"], s["spread"],
                     m["unit"], mark))
    return ok


def compare(bench, old, new):
    ok = True
    for m in bench["end_to_end"]:
        for workload in sorted(set(old) & set(new)):
            a = old[workload]["values"].get(m["name"])
            b = new[workload]["values"].get(m["name"])
            if not a or not b:
                continue
            w = worse_by(statistics.median(a), statistics.median(b),
                         m["better"])
            flag = "WORSE" if w > m["bound"] else "ok"
            ok &= flag == "ok"
            print("%-16s %-22s %12.6g -> %-12.6g worse by %+.4f (bound %.3g) %s"
                  % (workload, m["name"], statistics.median(a),
                     statistics.median(b), w, m["bound"], flag))
        mismatch = provenance_mismatch(
            [p for d in (old, new) for w in d.values() for p in w["provenance"]])
        if mismatch:
            ok = False
            print("FLAG: the two sweeps differ in %s" % mismatch)
            break
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="write the raw values here")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    bench = load_bench()
    if args.compare:
        with open(args.compare[0]) as f:
            old = json.load(f)
        with open(args.compare[1]) as f:
            new = json.load(f)
        sys.exit(0 if compare(bench, old, new) else 1)

    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    data = {}
    failed = False
    for workload in workloads:
        runs = {"values": {}, "provenance": [], "walls": []}
        for seed in parse_seeds(args.seeds):
            code, result, prov, wall, out = run_one(workload, seed, seconds,
                                                    args.trace)
            runs["walls"].append(wall)
            runs["provenance"].append(prov)
            if code != 0 or result is None or not result.get("correct"):
                failed = True
                print("%s seed %d: exit %d\n%s" % (workload, seed, code,
                                                  out[-3000:]))
                continue
            for name, v in result["metrics"].items():
                runs["values"].setdefault(name, []).append(v["value"])
            print("%s seed %d: %.1f s" % (workload, seed, wall), flush=True)
        data[workload] = runs
    if args.save:
        with open(args.save, "w") as f:
            json.dump(data, f, indent=1)
    ok = report(bench, data, args.trace)
    walls = [w for r in data.values() for w in r["walls"]]
    if walls:
        print("\nrun wall time: max %.1f s, mean %.1f s" %
              (max(walls), sum(walls) / len(walls)))
    sys.exit(0 if ok and not failed else 1)


if __name__ == "__main__":
    main()
