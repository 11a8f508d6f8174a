#!/usr/bin/env python3
"""Checks the trace smoke run's Chrome trace and text summary.

Usage: scripts/check_trace.py <trace.json> <summary.txt>

<trace.json> is what `bench/pipeline_vs_rounds --quick --contend --trace
<trace.json>` writes, and <summary.txt> is that run's standard output. The
trace must be well-formed JSON with chunk_exec spans on the parent's track
and at least one worker track, and carry exactly the five counter tracks
derived from its events; the summary's attribution table must name the
contended straggler.shared word. scripts/check.sh --trace and CI's trace
smoke step both run it.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: check_trace.py <trace.json> <summary.txt>")
    with open(argv[1]) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    assert events, "trace must contain events"
    assert any(e.get("name") == "chunk_exec" for e in events), \
        "trace must contain chunk_exec spans"
    slots = {e["tid"] for e in events if e.get("ph") == "X"}
    assert len(slots) >= 2, f"expected parent + worker tracks, got {slots}"
    tracks = {e["name"] for e in events if e.get("ph") == "C"}
    assert tracks == {"inflight_chunks", "committed", "retries", "warm_forks",
                      "cold_forks"}, \
        f"counter tracks derived from events: {tracks}"
    with open(argv[2]) as f:
        summary = f.read()
    assert "witness straggler.shared" in summary, \
        "the attribution table must name the contended straggler.shared word"
    print(f"trace OK: {len(events)} events across {len(slots)} tracks, "
          f"{len(tracks)} counter tracks, attribution names straggler.shared")


if __name__ == "__main__":
    main(sys.argv)
