#!/usr/bin/env python3
"""Checks one alter-metrics-v1 report against the committed baseline.

Usage: scripts/check_metrics.py <metrics.json>

The report (bench drivers' --metrics-json) must have exactly the key set of
the baseline, BENCH_metrics.json at the repo root, name the
alter-metrics-v1 schema, come from a successful run, time one commit per
committed chunk (histograms.commit_ns.count == committed), keep every
non-empty histogram's percentiles in order (min <= p50 <= p90 <= p99 <=
max), and attribute 99-101% of the wall clock in its critical-path
profile. scripts/check.sh --metrics and CI's metrics step both run it.
"""

import json
import os
import sys


def keypaths(node, prefix=""):
    out = set()
    for k, v in node.items():
        path = f"{prefix}.{k}" if prefix else k
        out.add(path)
        if isinstance(v, dict):
            out |= keypaths(v, path)
    return out


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: check_metrics.py <metrics.json>")
    base_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCH_metrics.json")
    with open(argv[1]) as f:
        cur = json.load(f)
    with open(base_path) as f:
        base = json.load(f)

    missing = keypaths(base) - keypaths(cur)
    extra = keypaths(cur) - keypaths(base)
    assert not missing and not extra, (
        f"metrics schema drifted vs {base_path}: missing={sorted(missing)} "
        f"extra={sorted(extra)} — regenerate the baseline if the change is "
        f"intentional")
    assert cur["schema"] == "alter-metrics-v1", cur["schema"]
    assert cur["status"] == "success", cur["status"]
    commits = cur["histograms"]["commit_ns"]["count"]
    assert commits == cur["committed"], (
        f"commit_ns.count {commits} != committed {cur['committed']}")
    for name, h in cur["histograms"].items():
        if h["count"] == 0:
            continue
        assert h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"], (
            f"{name}: percentiles out of order: {h}")
    prof = cur["profile"]
    assert 99.0 <= prof["coverage_pct"] <= 101.0, (
        f"critical-path profile does not reconcile: "
        f"coverage {prof['coverage_pct']}% of wall clock")
    nonzero = sum(1 for h in cur["histograms"].values() if h["count"])
    print(f"metrics OK: schema stable, {nonzero} live histograms, "
          f"coverage {prof['coverage_pct']:.2f}%")


if __name__ == "__main__":
    main(sys.argv)
