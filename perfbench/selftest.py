#!/usr/bin/env python3
"""Self-test of the benchmark on the registry's small inputs.

Runs run.py on floyd-160, kmeans-8k-256 and ssca2-11, the inputs held out
from tuning the benchmark's own workloads, with --trace 0 and --trace 1 for
a few seconds each, and checks that:

  - the last stdout line has exactly correct/attempted/failed/metrics, the
    run is correct and nothing failed, and a stamp line precedes it;
  - the stamp shows the planner picked the input's schedule (chunked for
    floyd and kmeans, staged for ssca2) on most runs, and no checked run
    needed the sequential fallback;
  - every metric BENCHMARK.json names for that mode is emitted with its
    unit, and nothing else;
  - every end-to-end value is positive and valid_frac is 1;
  - every traced run in the ledger file reconciles: its spans plus its gaps
    equal its wall clock within 1%, its phase profile covers 99-101% of the
    engine clock, and it made at least one runInner call;
  - the driver, run directly or through run.py, refuses an inherited
    ALTER_* knob and prints no result.

    python3 perfbench/selftest.py [--seconds 3]

Exits 1 on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each small input with the schedule the planner must pick for it.
SMALL = {"floyd-160": "chunked", "kmeans-8k-256": "chunked",
         "ssca2-11": "staged"}
STAMP_KEYS = {"workload", "seed", "nproc", "workers", "transport",
              "build_type", "commit", "recovered", "schedules"}
# --trace 0 also stamps the host speed its timings were scaled by.
HOST_KEYS = {"host_speed", "calibrations", "raw"}
PHASES = ("dispatch_stall", "child_exec", "validation", "commit_lane",
          "ring_backpressure", "ladder", "other")


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def run(workload, seconds, trace, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, env=env)


def check_result(workload, trace, out, expected):
    if out.returncode != 0:
        fail("%s --trace %d exited %d:\n%s" %
             (workload, trace, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("%s --trace %d printed no stamp line" % (workload, trace))
    stamp = json.loads(lines[-2])["stamp"]
    keys = STAMP_KEYS | HOST_KEYS if trace == 0 else STAMP_KEYS
    if set(stamp) != keys or stamp["workload"] != workload:
        fail("%s stamp is %r" % (workload, stamp))
    if trace == 0 and not (stamp["host_speed"] > 0 and
                           stamp["calibrations"] > 0 and
                           all(v > 0 for v in stamp["raw"].values())):
        fail("%s host speed stamp is %r" % (workload, stamp))
    if stamp["recovered"] != 0:
        fail("%s --trace %d: %d runs needed the sequential fallback" %
             (workload, trace, stamp["recovered"]))
    schedules = stamp["schedules"]
    if not schedules or max(schedules, key=schedules.get) != SMALL[workload]:
        fail("%s ran %r, want mostly %s" % (workload, schedules,
                                            SMALL[workload]))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s result keys are %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        fail("%s --trace %d: %r" % (workload, trace,
                                    {k: result[k] for k in
                                     ("correct", "attempted", "failed")}))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("%s --trace %d metrics differ from BENCHMARK.json: missing %s, "
             "extra %s" % (workload, trace,
                           sorted(set(expected) - set(metrics)),
                           sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            fail("%s %s is %r, want unit %s" % (workload, name, m, unit))
        if not isinstance(m["value"], (int, float)):
            fail("%s %s is not a number" % (workload, name))
    return metrics


def check_ledger(workload):
    path = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench", "ledger-%s-seed7.json" % workload)
    with open(os.path.join(ROOT, path)) as f:
        ledger = json.load(f)
    if not ledger["runs"]:
        fail("%s ledger has no traced runs" % workload)
    if ledger["stamp"]["workload"] != workload:
        fail("%s ledger belongs to %s" % (workload,
                                         ledger["stamp"]["workload"]))
    for i, r in enumerate(ledger["runs"]):
        covered = sum(r["spans_ns"]) + sum(r["gaps_ns"])
        if abs(covered - r["wall_ns"]) > 0.01 * r["wall_ns"]:
            fail("%s traced run %d: spans+gaps %d ns vs wall %d ns" %
                 (workload, i, covered, r["wall_ns"]))
        if len(r["gaps_ns"]) != len(r["spans_ns"]) + 1:
            fail("%s traced run %d: %d gaps around %d spans" %
                 (workload, i, len(r["gaps_ns"]), len(r["spans_ns"])))
        profile = r["profile_ns"]
        phases = sum(profile[p] for p in PHASES)
        if not 0.99 * profile["wall"] <= phases <= 1.01 * profile["wall"]:
            fail("%s traced run %d: phases cover %d of %d ns" %
                 (workload, i, phases, profile["wall"]))
        if not r["spans_ns"]:
            fail("%s traced run %d made no runInner call" % (workload, i))


def check_refusals():
    env = dict(os.environ, ALTER_FAULTS="")
    out = run("floyd-160", 1, 0, env)
    if out.returncode == 0 or out.stdout.strip():
        fail("run.py ran with ALTER_FAULTS set")
    driver = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                          ".bench_build", "perfbench", "perfbench_driver")
    out = subprocess.run([driver, "--workload", "floyd-160", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True,
                         env=dict(os.environ, ALTER_TRANSPORT="pipe"))
    if out.returncode == 0 or out.stdout.strip():
        fail("the driver ran with ALTER_TRANSPORT set")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for workload in SMALL:
        metrics = check_result(workload, 0, run(workload, args.seconds, 0),
                               end_to_end)
        for name, m in metrics.items():
            if m["value"] <= 0:
                fail("%s %s is %r" % (workload, name, m["value"]))
        if metrics["valid_frac"]["value"] != 1:
            fail("%s valid_frac is %r" % (workload,
                                          metrics["valid_frac"]["value"]))
        check_result(workload, 1, run(workload, args.seconds, 1), per_layer)
        check_ledger(workload)
        print("selftest: %s ok" % workload, flush=True)
    check_refusals()
    print("selftest: refusals ok")


if __name__ == "__main__":
    main()
