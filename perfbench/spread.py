#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

Runs run.py several times per workload, each with another seed, and prints
for every end-to-end metric its median and its interquartile spread (Q3 - Q1
from statistics.quantiles(values, n=4), as a share of the median) next to
the metric's bound in BENCHMARK.json:

    python3 perfbench/spread.py --runs 10 [--workload kmeans-8k-512] [--out runs.json]

Exits 1 when a spread exceeds its bound. --compare takes an earlier --out
file and also fails when a median got worse than that file's by more than
the bound. For the timings scaled to the reference host speed, the line
also shows the spread of the raw timings and of the host speed, which the
stamp records; those are not checked.
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


def run_once(workload, seed, seconds):
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit("run.py failed on %s seed %d:\n%s" %
                 (workload, seed, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect result on %s seed %d" % (workload, seed))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    stamp = json.loads(lines[-2])["stamp"]
    values["host_speed"] = stamp["host_speed"]
    values.update({"raw." + k: v for k, v in stamp["raw"].items()})
    values["elapsed_s"] = time.monotonic() - start
    return values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    record, ok = {}, True
    for workload in workloads:
        runs = [run_once(workload, args.first_seed + i, bench["run_seconds"])
                for i in range(args.runs)]
        record[workload] = runs
        print("%-14s %d runs, the longest took %.1f s" % (
            workload, len(runs), max(r["elapsed_s"] for r in runs)))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med, sp = spread([r[name] for r in runs])
            verdict = "ok"
            if sp > bound:
                verdict, ok = "TOO NOISY", False
            line = "%-14s %-12s median %12.4f  spread %6.2f%% (bound %4.1f%%)" % (
                workload, name, med, 100 * sp, 100 * bound)
            if "raw." + name in runs[0]:
                line += "  raw %6.2f%%" % (
                    100 * spread([r["raw." + name] for r in runs])[1])
            if workload in earlier:
                before = statistics.median(r[name] for r in earlier[workload])
                worse = (med - before) / before if m["better"] == "lower" \
                    else (before - med) / before
                line += "  vs earlier %+6.2f%%" % (100 * worse)
                if worse > bound:
                    verdict, ok = "WORSE", False
            print(line + "  " + verdict, flush=True)
        med, sp = spread([r["host_speed"] for r in runs])
        print("%-14s %-12s median %12.4f  spread %6.2f%%" % (
            workload, "host_speed", med, 100 * sp), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
