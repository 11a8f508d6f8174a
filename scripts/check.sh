#!/usr/bin/env bash
# Tier-1 verification plus a quick benchmark smoke run.
#
# Usage: scripts/check.sh [build-dir]
#        scripts/check.sh --sanitize [build-dir]
#        scripts/check.sh --trace [build-dir]
#        scripts/check.sh --fault [build-dir]
#        scripts/check.sh --pool [build-dir]
#        scripts/check.sh --stage [build-dir]
#        scripts/check.sh --chaos [build-dir]
#        scripts/check.sh --metrics [build-dir]
#        scripts/check.sh --durability [build-dir]
#        scripts/check.sh --tsan [build-dir]
#
# Configures, builds, runs the full ctest suite, then smoke-runs the
# straggler micro-benchmark (--quick, with --fault so the recovery path is
# exercised too) with a JSON report so the pipelined engine's
# occupancy/wire stats stay eyeballable on every change. The smoke run is
# then compared against the committed BENCH_pipeline.json baseline: any
# sleep-dominated series more than 1.5x slower than the baseline fails the
# check (the compute-bound -small- transport rows are host-dependent and
# covered by BENCH_transport.json instead). A second quick run with
# ALTER_LOG=info checks that every pipeline-engine run_done line logs its
# modeled clock as its real time (scripts/check_run_done.py).
#
# With --stage the sequence additionally exercises the PS-DSWP stage
# pipeline: the stage-schedule test binary (the auto rule, staged output
# equivalence, cap attribution, buffered writes), the staged fault-matrix
# rows, two staged ALTER_FAULTS env plans (stage-worker kill and
# inter-stage queue-record corruption) driven end to end, and an
# end-to-end SSCA2 figure run asserting its staged series actually ran
# staged.
#
# With --chaos the sequence additionally runs the parent-survivability
# soak: the resource-fault/shutdown test filters, a seeded randomized
# multi-fault storm over the whole workload registry (bench/chaos_storm,
# bounded wall-clock), and an assertion pass over its summary line — every
# run must end Success-with-valid-output or Interrupted, with zero
# orphaned children and zero leaked mappings per /proc/self.
#
# With --metrics the sequence additionally gates the observability layer:
# the engine x transport matrix of --profile --metrics-json runs over the
# two fork engines and the threaded engine, each report checked by
# scripts/check_metrics.py (schema key set must match the committed
# BENCH_metrics.json, the run must succeed, every histogram must satisfy
# min <= p50 <= p90 <= p99 <= max, histograms.commit_ns.count must equal
# committed, and the critical-path profile must reconcile to 100% +/- 1%
# of wall clock), plus an overhead A/B over five interleaved pairs
# asserting ALTER_METRICS=1 costs less than 1.10x the metrics-off
# wall-clock on the sleep-dominated series, median against median.
#
# With --durability the sequence additionally gates the crash-consistent
# commit journal: the journal/torn-tail unit filters (record/replay
# equivalence, lease protocol, fuzz-truncation and bit-flips at every byte
# offset), a seeded crash-restart soak (bench/chaos_storm --crash-restart:
# the parent is SIGKILLed at randomized dispatch/validate/commit/fsync
# points across the registry, restarted against the surviving journal, and
# must reproduce the sequential output with zero orphans and zero leaked
# journal files), and a journal-on overhead A/B asserting the Batched
# group-commit policy costs less than 1.15x the journal-off wall clock.
#
# With --sanitize the whole sequence additionally runs in a second build
# tree compiled with AddressSanitizer + UndefinedBehaviorSanitizer, so
# memory errors in the fork/pipe/recovery paths surface in CI rather than
# as flaky wire rejects.
#
# With --tsan the sequence additionally builds a separate ThreadSanitizer
# tree (-g -fsanitize=thread) and runs the in-process suites that drive
# the threaded lock-step engine: runtime, policy matrix, fuzz loop,
# cross-engine, trace, memory, and the lock-step cases of the workload
# suite. Any race report fails the run; there is no suppression file.
#
# With --trace the sequence additionally smoke-tests the telemetry layer:
# an ALTER_TRACE=events run of the straggler benchmark checked by
# scripts/check_trace.py (the Chrome trace is well-formed JSON with the
# counter tracks derived from its events, and the attribution table names
# the contended word), then an overhead A/B over five interleaved pairs
# asserting full event recording costs less than 2x the untraced
# wall-clock on the sleep-dominated series, median against median.
#
# With --fault the sequence additionally exercises the graceful-degradation
# ladder: the ladder/fault-matrix test filter, two representative
# ALTER_FAULTS env plans driven end to end, and a validation pass over the
# bench JSON asserting sticky faults quarantine (recovered=true,
# quarantined_iterations>0) while transient faults salvage speculatively
# (salvaged_chunks>0, recovered=false).
#
# With --pool the sequence additionally exercises the steady-state
# transport: the ring/pool/transport test filters (including the
# multi-invocation pool-lifetime test), a ring-corruption
# ALTER_FAULTS plan driven end to end with ALTER_TRANSPORT=ring, and a
# validation pass over the bench JSON asserting the ring transport copies
# orders of magnitude fewer wire bytes than the pipe and actually reaches
# the fork-free steady state (child_reuses > 0 on the pipelined engine),
# plus the cross-engine equivalence suite on ALTER_TRANSPORT=pipe.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

SANITIZE=0
TRACE=0
FAULT=0
POOL=0
STAGE=0
CHAOS=0
METRICS=0
DURABILITY=0
TSAN=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
  --sanitize) SANITIZE=1 ;;
  --trace) TRACE=1 ;;
  --fault) FAULT=1 ;;
  --pool) POOL=1 ;;
  --stage) STAGE=1 ;;
  --chaos) CHAOS=1 ;;
  --metrics) METRICS=1 ;;
  --durability) DURABILITY=1 ;;
  --tsan) TSAN=1 ;;
  *)
    echo "check.sh: unknown flag $1" >&2
    exit 2
    ;;
  esac
  shift
done

BUILD_DIR="${1:-$REPO_ROOT/build}"

run_stage() { # run_stage <build-dir> <extra cmake args...>
  local DIR="$1"
  shift

  echo "== configure ($DIR) =="
  cmake -B "$DIR" -S "$REPO_ROOT" "$@"

  echo "== build ($DIR) =="
  cmake --build "$DIR" -j

  echo "== tier-1 tests ($DIR) =="
  ctest --test-dir "$DIR" --output-on-failure -j "$(nproc)"

  echo "== bench smoke (pipeline vs rounds, quick, with faults) ($DIR) =="
  local JSON_OUT="$DIR/pipeline_vs_rounds.quick.json"
  "$DIR/bench/pipeline_vs_rounds" --quick --fault --json "$JSON_OUT"

  echo "== run_done smoke (pipeline sim_time_ns is its real time) ($DIR) =="
  ALTER_LOG=info "$DIR/bench/pipeline_vs_rounds" --quick >/dev/null \
    2>"$DIR/run_done.log"
  python3 "$REPO_ROOT/scripts/check_run_done.py" "$DIR/run_done.log"
}

# Interleaved pairs per overhead A/B: one pair of single runs cannot resolve
# a 10% budget when host load moves one run by more than that.
AB_PAIRS=5

# overhead_ab <budget> <label> <out-prefix> <command A...> -- <command B...>
# Runs AB_PAIRS pairs of two pipeline_vs_rounds commands, alternating which
# side runs first, each with --json <out-prefix>.<a|b>.<pair>.json, and
# fails unless the median over B's runs of the summed real_time_ns of the
# sleep-dominated series is below <budget> times A's median.
overhead_ab() {
  local BUDGET="$1" LABEL="$2" OUT="$3"
  shift 3
  local A=() B=() I
  while [[ "$1" != -- ]]; do
    A+=("$1")
    shift
  done
  shift
  B=("$@")
  for ((I = 1; I <= AB_PAIRS; I++)); do
    if ((I % 2)); then
      "${A[@]}" --json "$OUT.a.$I.json" >/dev/null
      "${B[@]}" --json "$OUT.b.$I.json" >/dev/null
    else
      "${B[@]}" --json "$OUT.b.$I.json" >/dev/null
      "${A[@]}" --json "$OUT.a.$I.json" >/dev/null
    fi
  done
  python3 - "$BUDGET" "$LABEL" "$OUT" "$AB_PAIRS" <<'EOF'
import json, statistics, sys
budget, label, out, pairs = (float(sys.argv[1]), sys.argv[2], sys.argv[3],
                             int(sys.argv[4]))
# Only the sleep-dominated series are stable; the -small- transport rows
# and the heavy-tail skew rows are pure compute.
def stable_sum(path):
    with open(path) as f:
        records = json.load(f)["records"]
    return sum(r["real_time_ns"] for r in records
               if "-small-" not in r["series"]
               and "heavy-tail" not in r["series"])
a = [stable_sum(f"{out}.a.{i}.json") for i in range(1, pairs + 1)]
b = [stable_sum(f"{out}.b.{i}.json") for i in range(1, pairs + 1)]
assert min(a) > 0, f"{label}: the baseline side recorded no stable series"
ratio = statistics.median(b) / statistics.median(a)
summary = (f"{label}: median {statistics.median(b)/1e6:.1f}ms vs "
           f"{statistics.median(a)/1e6:.1f}ms over {pairs} interleaved "
           f"pairs = {ratio:.3f}x")
assert ratio < budget, f"{summary}; budget is {budget}x"
print(f"{summary} (budget {budget}x): OK")
EOF
}

baseline_stage() { # baseline_stage <build-dir> — primary (unsanitized) tree only
  local DIR="$1"

  echo "== bench baseline: compare against BENCH_pipeline.json =="
  python3 - "$DIR/pipeline_vs_rounds.quick.json" \
    "$REPO_ROOT/BENCH_pipeline.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    cur = json.load(f)["records"]
with open(sys.argv[2]) as f:
    base = json.load(f)["records"]
# Only the sleep-dominated series are stable across hosts; the -small-
# transport rows and the heavy-tail skew rows are pure compute (tracked
# by BENCH_transport.json and the occupancy columns instead).
def key(r): return (r["series"], r["procs"])
stable = {key(r): r for r in base
          if "-small-" not in r["series"] and "heavy-tail" not in r["series"]}
checked, bad = 0, []
for r in cur:
    b = stable.get(key(r))
    if b is None or b["real_time_ns"] == 0:
        continue
    checked += 1
    ratio = r["real_time_ns"] / b["real_time_ns"]
    if ratio > 1.5:
        bad.append(f"{r['series']}/P{r['procs']}: "
                   f"{r['real_time_ns']/1e6:.2f}ms vs baseline "
                   f"{b['real_time_ns']/1e6:.2f}ms ({ratio:.2f}x)")
assert checked > 0, "no comparable series against the committed baseline"
if bad:
    sys.exit("pipeline bench regressed >1.5x vs BENCH_pipeline.json:\n  "
             + "\n  ".join(bad))
print(f"baseline OK: {checked} series within 1.5x of BENCH_pipeline.json")
EOF
}

trace_stage() { # trace_stage <build-dir>
  local DIR="$1"
  local BENCH="$DIR/bench/pipeline_vs_rounds"
  local TRACE_OUT="$DIR/pipeline_vs_rounds.trace.json"

  echo "== trace smoke: ALTER_TRACE=events + --trace ($DIR) =="
  ALTER_TRACE=events "$BENCH" --quick --contend --trace "$TRACE_OUT" \
    >"$TRACE_OUT.txt"
  python3 "$REPO_ROOT/scripts/check_trace.py" "$TRACE_OUT" "$TRACE_OUT.txt"

  echo "== trace smoke: overhead A/B (ALTER_TRACE=events vs off) ($DIR) =="
  # Same workload either side (--quick --contend); the straggler sleeps
  # dominate, so a 2x budget catches pathological recording overhead while
  # staying robust to scheduler noise on a loaded CI host.
  overhead_ab 2 "trace overhead" "$DIR/trace_ab" \
    env ALTER_TRACE=off "$BENCH" --quick --contend -- \
    env ALTER_TRACE=events "$BENCH" --quick --contend \
    --trace "$DIR/trace_ab.trace.json"
}

fault_stage() { # fault_stage <build-dir>
  local DIR="$1"
  local ROBUSTNESS="$DIR/tests/robustness_test"

  echo "== fault smoke: ladder + fault-matrix tests ($DIR) =="
  "$ROBUSTNESS" --gtest_filter='DegradationLadderTest.*:FaultMatrixTest.*' \
    --gtest_brief=1

  echo "== fault smoke: env-armed plans drive the ladder ($DIR) =="
  # A sticky iteration fault (bisected to one quarantined iteration) and a
  # sticky chunk kill next to a one-shot stall: both plans are parsed from
  # the environment on first FaultPlan::global() access and must still
  # yield the exact sequential memory image.
  ALTER_FAULTS='crash@i6!;seed=11' "$ROBUSTNESS" \
    --gtest_filter='DegradationLadderTest.EnvPlanCompletesWithSequentialOutput' \
    --gtest_brief=1
  ALTER_FAULTS='kill@1!,truncate@3;seed=7' "$ROBUSTNESS" \
    --gtest_filter='DegradationLadderTest.EnvPlanCompletesWithSequentialOutput' \
    --gtest_brief=1

  echo "== fault smoke: per-tier counters in the bench JSON ($DIR) =="
  python3 - "$DIR/pipeline_vs_rounds.quick.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    records = json.load(f)["records"]
fault = [r for r in records if r["series"].endswith("-fault")]
salvage = [r for r in records if r["series"].endswith("-fault-salvage")]
assert fault and salvage, "bench JSON is missing the fault series"
for r in fault:
    assert r["recovered"] and r["quarantined_iterations"] > 0, \
        f"{r['series']}: sticky faults must end in quarantine, got {r}"
    assert r["salvaged_chunks"] == 0, \
        f"{r['series']}: sticky faults must not be salvaged, got {r}"
for r in salvage:
    assert r["salvaged_chunks"] > 0 and not r["recovered"], \
        f"{r['series']}: transient faults must heal at tier 1, got {r}"
print(f"fault JSON OK: {len(fault)} quarantine + {len(salvage)} salvage runs")
EOF
}

pool_stage() { # pool_stage <build-dir>
  local DIR="$1"

  echo "== pool smoke: ring + pool + transport tests ($DIR) =="
  "$DIR/tests/commit_ring_test" --gtest_brief=1
  "$DIR/tests/pipeline_executor_test" --gtest_filter='TransportTest.*' \
    --gtest_brief=1
  "$DIR/tests/robustness_test" \
    --gtest_filter='PoolFaultMatrixTest.*:PoolLifetimeTest.*' --gtest_brief=1

  echo "== pool smoke: ForkJoin vs Lockstep bit-identity on the pipe transport ($DIR) =="
  # ctest drives CrossEngineTest on the default ring transport; this run
  # covers the cold-fork path of the shared dispatch core.
  ALTER_TRANSPORT=pipe "$DIR/tests/cross_engine_test" --gtest_brief=1

  echo "== pool smoke: ring-corruption env plan on ALTER_TRANSPORT=ring ($DIR) =="
  # A torn ring record (truncate), a bit-flipped one, and a poisoned
  # template in the same run: the checked decode rejects the corrupt
  # records, the pool degrades the poisoned fork to cold, and the output
  # must still equal sequential execution.
  ALTER_TRANSPORT=ring ALTER_FAULTS='truncate@1,bitflip@2,poison@3;seed=5' \
    "$DIR/tests/robustness_test" \
    --gtest_filter='DegradationLadderTest.EnvPlanCompletesWithSequentialOutput' \
    --gtest_brief=1

  echo "== pool smoke: transport counters in the bench JSON ($DIR) =="
  python3 - "$DIR/pipeline_vs_rounds.quick.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    records = json.load(f)["records"]
small = [r for r in records if "-small-" in r["series"]]
assert small, "bench JSON is missing the small-chunk transport A/B"
by_series = {}
for r in small:
    by_series.setdefault(r["series"], {})[r["procs"]] = r
for engine in ("forkjoin", "pipeline"):
    ring = by_series[f"{engine}-small-ring"]
    pipe = by_series[f"{engine}-small-pipe"]
    for procs, rr in ring.items():
        pr = pipe[procs]
        assert rr["transport"] == "ring" and pr["transport"] == "pipe"
        assert rr["warm_forks"] > 0, f"{engine}/P{procs}: pool never warmed"
        assert rr["wire_bytes_copied"] * 10 < pr["wire_bytes_copied"], (
            f"{engine}/P{procs}: ring must copy only doorbells, got "
            f"{rr['wire_bytes_copied']} vs pipe {pr['wire_bytes_copied']}")
reuse = by_series["pipeline-small-ring"][4]
assert reuse["child_reuses"] > 0, \
    "the pipelined engine must reach the fork-free steady state at P=4"
assert by_series["forkjoin-small-ring"][4]["child_reuses"] == 0, \
    "the round-barrier engine must never redispatch a resident child"
print(f"transport JSON OK: {len(small)} A/B runs, "
      f"{reuse['child_reuses']} fork-free redispatches at P=4")
EOF
}

stage_stage() { # stage_stage <build-dir>
  local DIR="$1"

  echo "== stage smoke: schedule rule + staged fault tests ($DIR) =="
  "$DIR/tests/stage_pipeline_test" --gtest_brief=1
  "$DIR/tests/robustness_test" --gtest_filter='FaultMatrixTest.Staged*' \
    --gtest_brief=1

  echo "== stage smoke: staged ALTER_FAULTS plans drive the ladder ($DIR) =="
  # A sticky stage-worker kill and a sticky inter-stage queue-record
  # bit-flip: the staged engine's restart budget exhausts, the run degrades
  # through the ladder, and the output must still equal sequential.
  ALTER_FAULTS='kill@1!;seed=3' "$DIR/tests/stage_pipeline_test" \
    --gtest_filter='StageScheduleTest.EnvPlanCompletesWithValidOutput' \
    --gtest_brief=1
  ALTER_FAULTS='qflip@1!;seed=9' "$DIR/tests/stage_pipeline_test" \
    --gtest_filter='StageScheduleTest.EnvPlanCompletesWithValidOutput' \
    --gtest_brief=1

  echo "== stage smoke: staged SSCA2 end to end ($DIR) =="
  local STAGE_JSON="$DIR/fig7_ssca2.stage.json"
  "$DIR/bench/fig7_ssca2" --json "$STAGE_JSON" >/dev/null
  python3 - "$STAGE_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    records = json.load(f)["records"]
staged = [r for r in records if r["series"] == "staged" and r["procs"] >= 2]
assert staged, "fig7 JSON is missing the staged column"
for r in staged:
    assert r["status"] == "success", f"staged SSCA2 failed: {r}"
    assert r["schedule"] == "staged", (
        f"auto SSCA2 must actually run staged, got "
        f"{r['schedule']} at P={r['procs']}")
print(f"staged SSCA2 OK: {len(staged)} staged points, all ran staged")
EOF
}

chaos_stage() { # chaos_stage <build-dir>
  local DIR="$1"

  echo "== chaos smoke: resource-fault + shutdown tests ($DIR) =="
  "$DIR/tests/robustness_test" \
    --gtest_filter='ResourceFaultMatrixTest.*:ShutdownTest.*' --gtest_brief=1

  echo "== chaos smoke: setup-failure env plan degrades to cold ($DIR) =="
  # A dead slot-0 ring and slot-1 pipes on the ring transport: the pool is
  # invalid, the engines retreat to the cold pipe transport, and the output
  # must still equal sequential execution.
  ALTER_TRANSPORT=ring ALTER_FAULTS='mmapfail@0,pipeexhaust@1' \
    "$DIR/tests/robustness_test" \
    --gtest_filter='DegradationLadderTest.EnvPlanCompletesWithSequentialOutput' \
    --gtest_brief=1

  echo "== chaos storm: seeded randomized multi-fault soak ($DIR) =="
  # Bounded wall-clock (~25 s of storms + registry warm-up, well under the
  # 60 s stage budget). The harness exits nonzero on any violation; the
  # summary-line assertions below re-check the invariants independently.
  local STORM_OUT="$DIR/chaos_storm.out"
  "$DIR/bench/chaos_storm" --seed=42 --budget-ms=25000 | tee "$STORM_OUT"
  python3 - "$STORM_OUT" <<'EOF'
import sys
summary = None
with open(sys.argv[1]) as f:
    for line in f:
        if line.startswith("chaos_storm:"):
            summary = dict(kv.split("=", 1) for kv in line.split()[1:])
assert summary, "chaos_storm printed no summary line"
assert summary["verdict"] == "OK", f"chaos storm failed: {summary}"
assert int(summary["runs"]) > 0 and int(summary["storms"]) > 0
assert int(summary["orphan_violations"]) == 0, "orphaned children leaked"
assert int(summary["output_violations"]) == 0, "a storm corrupted output"
assert int(summary["status_violations"]) == 0, "a storm crashed a run"
assert int(summary["map_growth"]) <= 8, "commit-ring mappings leaked"
print(f"chaos OK: {summary['runs']} runs, {summary['storms']} faults, "
      f"{summary['interrupted']} graceful interrupts, zero leaks")
EOF
}

metrics_stage() { # metrics_stage <build-dir>
  local DIR="$1"
  local BENCH="$DIR/bench/pipeline_vs_rounds"

  echo "== metrics gate: engine x transport matrix =="
  # Every cell runs the profiled representative with a metrics JSON and is
  # validated by scripts/check_metrics.py (CI's metrics step runs the same
  # checker) against the committed BENCH_metrics.json schema: same key
  # set, a successful run, ordered percentiles, one commit timed per
  # committed chunk, and a critical-path profile that accounts for the
  # whole wall clock. The threaded engine ignores the transport; it runs in
  # both columns all the same.
  local ENGINE TRANSPORT MJSON
  for ENGINE in forkjoin pipeline threaded; do
    for TRANSPORT in pipe ring; do
      MJSON="$DIR/metrics.$ENGINE.$TRANSPORT.json"
      echo "-- $ENGINE over $TRANSPORT --"
      ALTER_TRANSPORT="$TRANSPORT" "$BENCH" --quick --profile \
        --profile-engine="$ENGINE" --metrics-json "$MJSON" >/dev/null
      python3 "$REPO_ROOT/scripts/check_metrics.py" "$MJSON"
    done
  done

  echo "== metrics gate: overhead A/B (ALTER_METRICS on vs off) =="
  # Same quick sweep either side; the sleep-dominated series make the
  # comparison robust, and a 1.10x budget catches a hot-path regression
  # (per-chunk serialization) without flaking on CI noise.
  overhead_ab 1.10 "metrics overhead" "$DIR/metrics_ab" \
    "$BENCH" --quick -- env ALTER_METRICS=1 "$BENCH" --quick
}

durability_stage() { # durability_stage <build-dir>
  local DIR="$1"

  echo "== durability gate: journal + torn-tail unit tests ($DIR) =="
  # Record/replay equivalence, repeated-restart idempotence, the pid/epoch
  # lease protocol, identity-mismatch refusal, interrupted-then-resume, and
  # the exhaustive fuzz passes (truncate at every length, flip a bit at
  # every byte) that assert a corrupt frame is never applied.
  "$DIR/tests/robustness_test" \
    --gtest_filter='JournalTest.*:TornTailTest.*' --gtest_brief=1

  echo "== durability gate: crash-restart soak ($DIR) =="
  # Seeded, bounded wall-clock. Every scenario arms a parentkill fault at a
  # randomized journal/commit point, SIGKILLs the parent mid-run, restarts
  # it fault-free against the surviving journal, and requires the restarted
  # run to reproduce the sequential output. The harness exits nonzero on
  # any violation; the summary-line assertions re-check independently.
  local RESTART_OUT="$DIR/chaos_restart.out"
  "$DIR/bench/chaos_storm" --crash-restart --seed=42 --budget-ms=20000 \
    | tee "$RESTART_OUT"
  python3 - "$RESTART_OUT" <<'EOF'
import sys
summary = None
with open(sys.argv[1]) as f:
    for line in f:
        if line.startswith("chaos_restart:"):
            summary = dict(kv.split("=", 1) for kv in line.split()[1:])
assert summary, "chaos_storm --crash-restart printed no summary line"
assert summary["verdict"] == "OK", f"crash-restart soak failed: {summary}"
assert int(summary["scenarios"]) > 0 and int(summary["kills"]) > 0, \
    "the soak must actually kill the parent at least once"
assert int(summary["restarts"]) == int(summary["kills"]), \
    "every SIGKILLed scenario must be restarted against its journal"
assert int(summary["violations"]) == 0, "a restarted run diverged"
assert int(summary["orphan_violations"]) == 0, "orphaned children leaked"
assert int(summary["leaked_journals"]) == 0, "journal files leaked"
print(f"crash-restart OK: {summary['scenarios']} scenarios, "
      f"{summary['kills']} parent kills, all recovered")
EOF

  echo "== durability gate: journal-on overhead A/B ($DIR) =="
  # Batched group commit on the default pipelined representative: min-of-N
  # either side; a 1.15x budget catches an accidental per-commit fsync or
  # serialization hot path without flaking on CI noise.
  local OVERHEAD_OUT="$DIR/journal_overhead.out"
  "$DIR/bench/chaos_storm" --journal-overhead --reps=5 | tee "$OVERHEAD_OUT"
  python3 - "$OVERHEAD_OUT" <<'EOF'
import sys
ratio = None
with open(sys.argv[1]) as f:
    for line in f:
        if line.startswith("journal_overhead:"):
            fields = dict(kv.split("=", 1) for kv in line.split()[1:])
            ratio = float(fields["ratio"])
assert ratio is not None, "chaos_storm --journal-overhead printed no ratio"
assert ratio < 1.15, (
    f"journaled run is {ratio:.3f}x the journal-off wall clock; "
    f"budget is 1.15x (Batched group commit must stay off the hot path)")
print(f"journal overhead OK: on/off = {ratio:.3f}x")
EOF

  echo "== durability gate: no leaked journal files =="
  # Both the soak and the A/B unlink their journals on success; anything
  # left under /tmp means a cleanup path regressed.
  local LEAKED
  LEAKED=$(find /tmp -maxdepth 2 \
    \( -name 'alter_chaos_*' -o -name 'alter_overhead_*.alterj' \) \
    2>/dev/null | wc -l)
  if ((LEAKED > 0)); then
    echo "check.sh: $LEAKED leaked journal artifacts under /tmp:" >&2
    find /tmp -maxdepth 2 \
      \( -name 'alter_chaos_*' -o -name 'alter_overhead_*.alterj' \) \
      2>/dev/null >&2
    exit 1
  fi
  echo "journal cleanup OK: no leaked files under /tmp"
}

tsan_stage() { # tsan_stage <build-dir>
  local DIR="$1"
  local TSAN_FLAGS="-fsanitize=thread -g"

  echo "== configure ($DIR, ThreadSanitizer) =="
  cmake -B "$DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"

  local SUITES=(runtime_test policy_matrix_test fuzz_loop_test
    cross_engine_test trace_test memory_test)
  echo "== build ($DIR, ThreadSanitizer) =="
  cmake --build "$DIR" -j --target "${SUITES[@]}" workload_test

  # halt_on_error makes the first report fail the suite at once.
  export TSAN_OPTIONS="halt_on_error=1"
  local T
  for T in "${SUITES[@]}"; do
    echo "== tsan: $T =="
    "$DIR/tests/$T" --gtest_brief=1
  done
  echo "== tsan: workload_test lock-step cases =="
  # Every case that runs the lock-step engine: the paper-annotation sweeps
  # and the per-workload semantic tests (the rest are sequential only).
  "$DIR/tests/workload_test" --gtest_brief=1 \
    --gtest_filter='Paper/AllWorkloads.PaperAnnotation*:*Test.*'
  unset TSAN_OPTIONS
}

run_stage "$BUILD_DIR"
baseline_stage "$BUILD_DIR"

if [[ "$TRACE" == 1 ]]; then
  trace_stage "$BUILD_DIR"
fi

if [[ "$FAULT" == 1 ]]; then
  fault_stage "$BUILD_DIR"
fi

if [[ "$POOL" == 1 ]]; then
  pool_stage "$BUILD_DIR"
fi

if [[ "$STAGE" == 1 ]]; then
  stage_stage "$BUILD_DIR"
fi

if [[ "$CHAOS" == 1 ]]; then
  chaos_stage "$BUILD_DIR"
fi

if [[ "$METRICS" == 1 ]]; then
  metrics_stage "$BUILD_DIR"
fi

if [[ "$DURABILITY" == 1 ]]; then
  durability_stage "$BUILD_DIR"
fi

if [[ "$TSAN" == 1 ]]; then
  tsan_stage "$BUILD_DIR-tsan"
fi

if [[ "$SANITIZE" == 1 ]]; then
  SAN_DIR="$BUILD_DIR-asan-ubsan"
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -g"
  # Children report over pipes and are reaped by waitpid; ASan's leak
  # checker sees the short-lived forked children as separate processes, and
  # their intentional _exit() teardown would trip it spuriously.
  # abort_on_error keeps deliberate child faults dying by signal, which the
  # sandbox/robustness tests assert on.
  export ASAN_OPTIONS="detect_leaks=0:abort_on_error=1"
  export UBSAN_OPTIONS="print_stacktrace=1:abort_on_error=1"
  run_stage "$SAN_DIR" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
fi

echo "== check.sh: all green =="
