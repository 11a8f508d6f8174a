#!/usr/bin/env python3
"""Checks the run_done log lines of the pipeline engine.

Usage: scripts/check_run_done.py <log.txt>

<log.txt> is the standard error of `ALTER_LOG=info
bench/pipeline_vs_rounds --quick`. The pipeline engine's modeled clock is
its real clock, so every `engine=pipeline` run_done line must carry a
nonzero sim_time_ns equal to its real_time_ns, as its --json record and
metrics report do. scripts/check.sh's bench smoke and CI's bench smoke step
both run it.
"""

import sys


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: check_run_done.py <log.txt>")
    lines = []
    with open(argv[1]) as f:
        for line in f:
            fields = dict(kv.split("=", 1) for kv in line.split() if "=" in kv)
            if fields.get("event") == "run_done" and \
                    fields.get("engine") == "pipeline":
                lines.append(fields)
    assert lines, "no engine=pipeline run_done line in the log"
    for fields in lines:
        sim, real = int(fields["sim_time_ns"]), int(fields["real_time_ns"])
        assert sim > 0 and sim == real, \
            f"pipeline run_done sim_time_ns={sim} real_time_ns={real}"
    print(f"run_done OK: {len(lines)} pipeline lines with "
          "sim_time_ns == real_time_ns")


if __name__ == "__main__":
    main(sys.argv)
