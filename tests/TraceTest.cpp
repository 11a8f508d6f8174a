//===- tests/TraceTest.cpp - Telemetry, tracing, and attribution ----------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer end to end: RunStats edge cases (zero
/// denominators, saturated counters), its merge and transaction fold, one
/// run's bench --json record against its metrics report, trace-level
/// parsing, the bounded
/// event buffer, the deterministic trace clock, region labels, the wire
/// TRACE section round trip through the fork engines (per-slot busy time
/// must reconcile with WorkerBusyNs), seeded determinism of the merged
/// timeline, conflict attribution naming the right granule, the Chrome
/// exporter's output shape and the counter tracks it derives from the
/// events on every engine, stdout written once across forks, and the
/// EnvFault inference classification — both as a unit over synthetic
/// RunResults and end to end with a sticky fault plan armed.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "inference/Outcome.h"
#include "memory/AccessSet.h"
#include "runtime/ForkJoinExecutor.h"
#include "runtime/LockstepExecutor.h"
#include "runtime/LoopRunner.h"
#include "runtime/PipelineExecutor.h"
#include "runtime/TraceSink.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Subprocess.h"
#include "support/Trace.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

using namespace alter;

namespace {

/// RAII guard: forces the given trace level for the scope and restores Off
/// (the test default) afterwards, clearing labels and the deterministic
/// clock so tests cannot leak state into each other.
struct ScopedTraceLevel {
  explicit ScopedTraceLevel(TraceLevel Level) { setGlobalTraceLevel(Level); }
  ~ScopedTraceLevel() {
    setGlobalTraceLevel(TraceLevel::Off);
    clearDeterministicTraceClock();
    traceClearRegionLabels();
  }
};

} // namespace

//===----------------------------------------------------------------------===
// RunStats edge cases
//===----------------------------------------------------------------------===

TEST(RunStatsTest, ZeroDenominatorsAreDefined) {
  const RunStats S;
  EXPECT_EQ(S.occupancy(), 0.0);
  EXPECT_EQ(S.retryRate(), 0.0);
  EXPECT_EQ(S.wireCompressionRatio(), 1.0) << "nothing shipped = no waste";
  EXPECT_EQ(S.stragglerStallNs(), 0u);
}

TEST(RunStatsTest, SaturatedCountersDoNotOverflowDerivedRates) {
  RunStats S;
  S.NumTransactions = ~uint64_t(0);
  S.NumRetries = ~uint64_t(0);
  EXPECT_DOUBLE_EQ(S.retryRate(), 1.0);
  S.WorkerBusyNs = ~uint64_t(0);
  S.WorkerSlotNs = ~uint64_t(0);
  EXPECT_DOUBLE_EQ(S.occupancy(), 1.0);
  EXPECT_EQ(S.stragglerStallNs(), 0u) << "busy > slot must clamp, not wrap";
  S.WorkerSlotNs = 1;
  EXPECT_EQ(S.stragglerStallNs(), 0u);
}

namespace {

// Distinct values for one ALTER_RUN_STATS row on both sides of a merge;
// which side holds the larger value alternates row by row, so a Max row
// must pick per row.
void assignDistinct(uint64_t &A, uint64_t &B, uint64_t &Row) {
  const uint64_t Lo = 1000 * ++Row, Hi = Lo + 7;
  A = Row % 2 ? Lo : Hi;
  B = Row % 2 ? Hi : Lo;
}
void assignDistinct(bool &A, bool &B, uint64_t &) {
  A = false;
  B = true;
}

void expectSum(uint64_t M, uint64_t A, uint64_t B, const char *Name) {
  EXPECT_EQ(M, A + B) << Name;
}
void expectMax(uint64_t M, uint64_t A, uint64_t B, const char *Name) {
  EXPECT_EQ(M, std::max(A, B)) << Name;
}
void expectOr(bool M, bool A, bool B, const char *Name) {
  EXPECT_EQ(M, A || B) << Name;
}

} // namespace

TEST(RunStatsTest, MergeFollowsTheTable) {
  RunStats A, B;
  uint64_t Row = 0;
#define ALTER_ASSIGN_STAT(Member, Name, Rule)                                  \
  assignDistinct(A.Member, B.Member, Row);
  ALTER_RUN_STATS(ALTER_ASSIGN_STAT)
#undef ALTER_ASSIGN_STAT
  A.ReadSetWords.add(2);
  A.ReadSetWords.add(4);
  B.ReadSetWords.add(9);
  B.WriteSetWords.add(1);

  RunStats M = A;
  M.merge(B);
  std::map<std::string, std::string> RuleOf;
#define ALTER_EXPECT_STAT(Member, Name, Rule)                                  \
  expect##Rule(M.Member, A.Member, B.Member, Name);                            \
  EXPECT_TRUE(RuleOf.emplace(Name, #Rule).second) << "duplicate name " << Name;
  ALTER_RUN_STATS(ALTER_EXPECT_STAT)
#undef ALTER_EXPECT_STAT
  std::vector<std::string> NotSummed;
  for (const auto &[Name, Rule] : RuleOf)
    if (Rule != "Sum")
      NotSummed.push_back(Name + ":" + Rule);
  EXPECT_EQ(NotSummed,
            (std::vector<std::string>{"max_child_rss_bytes:Max",
                                      "queue_depth_peak:Max", "recovered:Or"}))
      << "only the high-water marks take the max, and the flag the or";
  EXPECT_EQ(M.ReadSetWords.count(), 3u);
  EXPECT_EQ(M.ReadSetWords.sum(), 15.0);
  EXPECT_EQ(M.ReadSetWords.min(), 2.0);
  EXPECT_EQ(M.ReadSetWords.max(), 9.0);
  EXPECT_EQ(M.WriteSetWords.count(), 1u);
  EXPECT_EQ(M.WriteSetWords.mean(), 1.0);

  for (bool L : {false, true})
    for (bool R : {false, true}) {
      RunStats X, Y;
      X.Recovered = L;
      Y.Recovered = R;
      X.merge(Y);
      EXPECT_EQ(X.Recovered, L || R) << L << " | " << R;
    }
}

TEST(RunStatsTest, CountTransactionFoldsTheFootprint) {
  RunStats S;
  S.countTransaction({/*ReadSetWords=*/3, /*WriteSetWords=*/2,
                      /*InstrReadCalls=*/5, /*InstrWriteCalls=*/7,
                      /*BytesRead=*/11, /*BytesWritten=*/13});
  S.countTransaction({1, 4, 1, 1, 1, 1});
  EXPECT_EQ(S.NumTransactions, 2u);
  EXPECT_EQ(S.ReadSetWords.sum(), 4.0);
  EXPECT_EQ(S.WriteSetWords.max(), 4.0);
  EXPECT_EQ(S.InstrReadCalls, 6u);
  EXPECT_EQ(S.InstrWriteCalls, 8u);
  EXPECT_EQ(S.BytesRead, 12u);
  EXPECT_EQ(S.BytesWritten, 14u);
  EXPECT_EQ(S.NumCommitted, 0u) << "committing is the engine's call";
}

namespace {

/// The scalar `"key": value` members of the first bench --json record
/// (\p OneLine: the record is one line) or of the alter-metrics-v1
/// report's top level (one member per line; lines that open a nested
/// object are skipped, and its members are indented deeper).
std::map<std::string, std::string> flatMembers(const std::string &Text,
                                               bool OneLine) {
  std::map<std::string, std::string> Out;
  std::istringstream Lines(Text);
  for (std::string Line; std::getline(Lines, Line);) {
    if (OneLine ? Line.find("\"figure\"") == std::string::npos
                : Line.rfind("  \"", 0) != 0 ||
                      Line.find('{') != std::string::npos)
      continue;
    // No key or value contains a quote-colon, a comma or a brace.
    for (size_t Key = Line.find('"'); Key != std::string::npos;) {
      const size_t Colon = Line.find("\": ", Key);
      const size_t End = Line.find_first_of(",}", Colon);
      Out[Line.substr(Key + 1, Colon - Key - 1)] =
          Line.substr(Colon + 3, End == std::string::npos ? std::string::npos
                                                          : End - Colon - 3);
      Key = End == std::string::npos ? End : Line.find('"', End);
    }
    if (OneLine)
      break;
  }
  return Out;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

TEST(RunStatsTest, BenchRecordAndMetricsReportCarryTheSameStats) {
  // One bench driver's life: the shared flags, one measured run, its point
  // in the --json record and its --metrics-json report.
  const std::string Dir = ::testing::TempDir();
  std::string BenchPath = Dir + "run_stats_bench.json";
  std::string MetricsPath = Dir + "run_stats_metrics.json";
  std::string Prog = "trace_test", JsonFlag = "--json",
              MetricsFlag = "--metrics-json";
  char *Argv[] = {Prog.data(), JsonFlag.data(), BenchPath.data(),
                  MetricsFlag.data(), MetricsPath.data()};
  bench::initBenchArgs(5, Argv);
  std::vector<int64_t> Data(16, 0);
  LoopSpec Spec;
  Spec.NumIterations = 16;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], Ctx.load(&Data[0]) + I);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.ChunkFactor = 2;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
  bench::SweepPoint Point;
  Point.NumWorkers = Config.NumWorkers;
  Point.Stats = R.Stats;
  bench::jsonAddPoint("run_stats_test", "pipeline", Point);
  bench::maybeWriteMetricsReport(R);
  bench::finalizeBenchJson();
  setGlobalTraceLevel(TraceLevel::Off);
  setGlobalMetricsEnabled(false);

  std::map<std::string, std::string> Record =
      flatMembers(readFile(BenchPath), /*OneLine=*/true);
  std::map<std::string, std::string> Report =
      flatMembers(readFile(MetricsPath), /*OneLine=*/false);
  for (const char *Wrapper : {"figure", "series", "procs", "speedup",
                              "chunk_factor", "transport"})
    EXPECT_EQ(Record.erase(Wrapper), 1u) << Wrapper;
  EXPECT_EQ(Report.erase("schema"), 1u);
  Record.erase("status");
  Record.erase("schedule");
  Report.erase("status");
  Report.erase("schedule");
  EXPECT_EQ(Record, Report);
  size_t Reported = 0;
  R.Stats.forEachReported([&](const char *Name, const std::string &Value) {
    ++Reported;
    EXPECT_EQ(Report[Name], Value) << Name;
  });
  EXPECT_EQ(Report.size(), Reported);
  EXPECT_EQ(Report["transactions"], std::to_string(R.Stats.NumTransactions));
  EXPECT_EQ(Report["real_time_ns"], std::to_string(R.Stats.RealTimeNs));
  EXPECT_EQ(Report["recovered"], "false");
  std::remove(BenchPath.c_str());
  std::remove(MetricsPath.c_str());
}

//===----------------------------------------------------------------------===
// Trace level parsing and the bounded buffer
//===----------------------------------------------------------------------===

TEST(TraceLevelTest, ParseAcceptsOffAndEventsCaseInsensitively) {
  TraceLevel L = TraceLevel::Off;
  EXPECT_TRUE(parseTraceLevel("EVENTS", L));
  EXPECT_EQ(L, TraceLevel::Events);
  EXPECT_TRUE(parseTraceLevel("Off", L));
  EXPECT_EQ(L, TraceLevel::Off);
  L = TraceLevel::Events;
  EXPECT_FALSE(parseTraceLevel("verbose", L));
  EXPECT_FALSE(parseTraceLevel("counters", L))
      << "the counters level is gone; its attribution derives from events";
  EXPECT_EQ(L, TraceLevel::Events) << "failed parse must not clobber";
  // An empty value (ALTER_TRACE=) means Off, as do "0" and "off".
  EXPECT_TRUE(parseTraceLevel("", L));
  EXPECT_EQ(L, TraceLevel::Off);
}

TEST(TraceBufferTest, RecordIsANoOpBelowEvents) {
  TraceBuffer Buf(TraceLevel::Off);
  Buf.record(TraceEventKind::ChunkExec, 1, 0, 100, 50);
  EXPECT_TRUE(Buf.buffer().empty());
  EXPECT_EQ(Buf.dropped(), 0u);
}

TEST(TraceBufferTest, CapacityBoundsTheBufferAndCountsDrops) {
  TraceBuffer Buf(TraceLevel::Events, /*Capacity=*/4);
  for (uint64_t I = 0; I != 10; ++I)
    Buf.record(TraceEventKind::Commit, 0, static_cast<int64_t>(I), I * 100);
  EXPECT_EQ(Buf.buffer().size(), 4u);
  EXPECT_EQ(Buf.dropped(), 6u);
  // The kept events are the FIRST four — the prefix of the timeline.
  EXPECT_EQ(Buf.buffer()[3].Chunk, 3);
}

//===----------------------------------------------------------------------===
// Deterministic clock and region labels
//===----------------------------------------------------------------------===

TEST(TraceClockTest, DeterministicClockTicksFromTheSeed) {
  setDeterministicTraceClock(5000);
  const uint64_t A = traceNowNs();
  const uint64_t B = traceNowNs();
  EXPECT_GT(A, 5000u);
  EXPECT_EQ(B - A, 1000u) << "fixed 1000ns tick per call";
  setDeterministicTraceClock(5000);
  EXPECT_EQ(traceNowNs(), A) << "re-seeding must replay the sequence";
  clearDeterministicTraceClock();
  // Monotonic real clock resumes: strictly larger than any plausible
  // deterministic counter value.
  EXPECT_GT(traceNowNs(), 1u << 20);
}

TEST(TraceLabelTest, WordKeysResolveToLabelsWithOffsets) {
  traceClearRegionLabels();
  alignas(8) static double Arr[64];
  traceLabelRegion(Arr, sizeof(Arr), "test.arr");
  const uintptr_t Base = reinterpret_cast<uintptr_t>(Arr) >> 3;
  EXPECT_EQ(traceLabelForWordKey(Base), "test.arr");
  EXPECT_EQ(traceLabelForWordKey(Base + 5), "test.arr+0x28");
  // One word past the end is outside the half-open range.
  const std::string Past = traceLabelForWordKey(Base + 64);
  EXPECT_EQ(Past.rfind("0x", 0), 0u);
  EXPECT_EQ(Past.find("test.arr"), std::string::npos);
  traceClearRegionLabels();
  EXPECT_EQ(traceLabelForWordKey(Base).rfind("0x", 0), 0u);
}

//===----------------------------------------------------------------------===
// Wire TRACE round trip through the fork engines
//===----------------------------------------------------------------------===

namespace {

/// A disjoint-writes loop under the given engine at Events level with the
/// deterministic clock armed; returns the merged RunResult.
RunResult runTracedDisjoint(bool Pipelined, int64_t N = 24) {
  std::vector<int64_t> Data(static_cast<size_t>(N), -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I + 7);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.ChunkFactor = 4;
  Config.Trace = TraceLevel::Events;
  RunResult R;
  if (Pipelined) {
    PipelineExecutor Exec(Config);
    R = Exec.run(Spec);
  } else {
    ForkJoinExecutor Exec(Config);
    R = Exec.run(Spec);
  }
  EXPECT_EQ(R.Status, RunStatus::Success);
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I + 7);
  return R;
}

/// Number of events of \p Kind in \p Events.
size_t countKind(const std::vector<TraceEvent> &Events, TraceEventKind Kind) {
  size_t N = 0;
  for (const TraceEvent &E : Events)
    N += E.Kind == Kind ? 1 : 0;
  return N;
}

} // namespace

TEST(WireTraceTest, ChildEventsSurviveTheRoundTrip) {
  for (bool Pipelined : {false, true}) {
    SCOPED_TRACE(Pipelined ? "pipeline" : "forkjoin");
    ScopedTraceLevel Scope(TraceLevel::Events);
    setDeterministicTraceClock(1);
    const RunResult R = runTracedDisjoint(Pipelined);
    // 24 iterations / (cf 4 x 2 workers... chunk size is cf) = 6 chunks,
    // none of which conflict: each committed exactly once.
    EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::ChunkStart), 6u);
    EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::ChunkExec), 6u);
    EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::Serialize), 6u);
    EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::CommitAttempt), 6u);
    EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::Fork), 6u);
    EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::Validate), 6u);
    EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::Commit), 6u);
    EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::Retry), 0u);
    EXPECT_EQ(R.TraceEventsDropped, 0u);
    // Child-side events carry the worker slot (1-based; 0 is the parent).
    for (const TraceEvent &E : R.TraceEvents) {
      if (E.Kind == TraceEventKind::ChunkExec) {
        EXPECT_GE(E.Worker, 1u);
      }
    }
  }
}

TEST(WireTraceTest, ChunkExecDurationsReconcileWithWorkerBusyNs) {
  // The ≥95% accounting criterion, exact by construction: every decoded
  // report contributes its WorkNs both to WorkerBusyNs and to the shipped
  // ChunkExec event's duration.
  for (bool Pipelined : {false, true}) {
    SCOPED_TRACE(Pipelined ? "pipeline" : "forkjoin");
    ScopedTraceLevel Scope(TraceLevel::Events);
    const RunResult R = runTracedDisjoint(Pipelined);
    EXPECT_EQ(traceTotalDurNs(R.TraceEvents, TraceEventKind::ChunkExec),
              R.Stats.WorkerBusyNs);
  }
}

TEST(WireTraceTest, SeededRunsProduceIdenticalTimelines) {
  // Determinism of the merged event sequence: same loop, same seed, same
  // engine configuration => byte-identical TraceEvents. The in-process
  // Lockstep engine has no poll()/scheduling nondeterminism, so the whole
  // merged timeline (not just the child side) must replay exactly.
  auto RunOnce = [] {
    setDeterministicTraceClock(42);
    std::vector<int64_t> Data(32, 0);
    LoopSpec Spec;
    Spec.NumIterations = 32;
    Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
      Ctx.store(&Data[static_cast<size_t>(I)], I);
    };
    ExecutorConfig Config;
    Config.NumWorkers = 4;
    Config.Params.ChunkFactor = 2;
    Config.Trace = TraceLevel::Events;
    LockstepExecutor Exec(Config);
    return Exec.run(Spec);
  };
  ScopedTraceLevel Scope(TraceLevel::Events);
  const RunResult A = RunOnce();
  const RunResult B = RunOnce();
  ASSERT_EQ(A.Status, RunStatus::Success);
  ASSERT_FALSE(A.TraceEvents.empty());
  ASSERT_EQ(A.TraceEvents.size(), B.TraceEvents.size());
  for (size_t I = 0; I != A.TraceEvents.size(); ++I)
    EXPECT_TRUE(A.TraceEvents[I] == B.TraceEvents[I])
        << "event " << I << " ("
        << traceEventKindName(A.TraceEvents[I].Kind) << " vs "
        << traceEventKindName(B.TraceEvents[I].Kind) << ") diverged";
}

TEST(WireTraceTest, OffLevelShipsNoEventsAndAllocatesNothing) {
  ScopedTraceLevel Scope(TraceLevel::Off);
  std::vector<int64_t> Data(16, 0);
  LoopSpec Spec;
  Spec.NumIterations = 16;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.ChunkFactor = 4;
  Config.Trace = TraceLevel::Off;
  ForkJoinExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  EXPECT_EQ(R.Status, RunStatus::Success);
  EXPECT_TRUE(R.TraceEvents.empty());
  EXPECT_EQ(R.TraceEventsDropped, 0u);
}

//===----------------------------------------------------------------------===
// Conflict attribution
//===----------------------------------------------------------------------===

TEST(AttributionTest, RawConflictNamesTheLabeledGranule) {
  // Every chunk reads and writes one shared labeled word under RAW +
  // OutOfOrder: all but the first commit of a round abort, and every abort
  // — every failed validate event — must be attributed to the shared
  // word's granule.
  ScopedTraceLevel Scope(TraceLevel::Events);
  traceClearRegionLabels();
  alignas(8) static double Shared = 0.0;
  traceLabelRegion(&Shared, sizeof(Shared), "attr.shared");
  LoopSpec Spec;
  Spec.NumIterations = 16;
  Spec.Body = [](TxnContext &Ctx, int64_t) {
    Ctx.store(&Shared, Ctx.load(&Shared) + 1.0);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.ChunkFactor = 1;
  Config.Params.Conflict = ConflictPolicy::RAW;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Trace = TraceLevel::Events;
  ForkJoinExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_EQ(R.Status, RunStatus::Success);
  ASSERT_GT(R.Stats.NumRetries, 0u) << "the workload must actually contend";
  // One shared word => one aborting granule, charged with every abort and
  // named by the shared word's label.
  const unsigned long long GranuleBase =
      static_cast<unsigned long long>(
          (reinterpret_cast<uintptr_t>(&Shared) >> 3) >> GranuleShift)
      << (GranuleShift + 3);
  const std::string Summary = R.traceSummary();
  EXPECT_NE(Summary.find("conflict attribution (top 1 granules"),
            std::string::npos)
      << Summary;
  EXPECT_NE(Summary.find(strprintf(
                "granule 0x%llx  %llu aborts  witness attr.shared\n",
                GranuleBase,
                static_cast<unsigned long long>(R.Stats.NumRetries))),
            std::string::npos)
      << Summary;
  EXPECT_EQ(Summary.find("no witness word"), std::string::npos) << Summary;
}

//===----------------------------------------------------------------------===
// Chrome exporter
//===----------------------------------------------------------------------===

TEST(ChromeTraceTest, ExportIsWellFormedAndTracksSlots) {
  ScopedTraceLevel Scope(TraceLevel::Events);
  setDeterministicTraceClock(7);
  const RunResult R = runTracedDisjoint(/*Pipelined=*/false);
  const std::string Path = ::testing::TempDir() + "trace_test_export.json";
  std::string Error;
  ASSERT_TRUE(R.writeChromeTrace(Path, &Error)) << Error;
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::string Json = Buf.str();
  // Structural spot checks (no JSON parser in tree): the trace_event
  // envelope, complete-duration events, and both worker tracks.
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"chunk_exec\""), std::string::npos);
  EXPECT_NE(Json.find("\"tid\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"tid\": 2"), std::string::npos);
  EXPECT_EQ(Json.find("nan"), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness proxy.
  int Braces = 0, Brackets = 0;
  for (char C : Json) {
    Braces += C == '{' ? 1 : C == '}' ? -1 : 0;
    Brackets += C == '[' ? 1 : C == ']' ? -1 : 0;
  }
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
  std::remove(Path.c_str());
}

TEST(ChromeTraceTest, UnwritablePathReportsTheError) {
  RunResult R;
  R.TraceEvents.push_back({});
  std::string Error;
  EXPECT_FALSE(R.writeChromeTrace("/no-such-dir/x/trace.json", &Error));
  EXPECT_FALSE(Error.empty());
}

namespace {

/// The last value of every counter track ("ph": "C") in the Chrome trace
/// \p R exports. The exporter writes one event per line. The file is named
/// after the running test, so cases that ctest runs in parallel never
/// share it.
std::map<std::string, uint64_t> lastCounterValues(const RunResult &R) {
  const std::string Path =
      ::testing::TempDir() + "trace_test_counters_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".json";
  std::string Error;
  EXPECT_TRUE(R.writeChromeTrace(Path, &Error)) << Error;
  std::ifstream In(Path);
  std::map<std::string, uint64_t> Last;
  for (std::string Line; std::getline(In, Line);) {
    if (Line.find("\"ph\": \"C\"") == std::string::npos)
      continue;
    const size_t Name = Line.find("\"name\": \"") + 9;
    const size_t Value = Line.find("\"value\": ") + 9;
    Last[Line.substr(Name, Line.find('"', Name) - Name)] =
        std::stoull(Line.substr(Value));
  }
  std::remove(Path.c_str());
  return Last;
}

} // namespace

TEST(ChromeTraceTest, TimelineSamplesExportAsCounterTracks) {
  // The counter tracks ("ph":"C") sample the event timeline: in-flight
  // chunks from poll_wake Arg1, running totals from commit, retry and
  // fork events (Arg1 1 and 2 are warm forks, 0 and 3 cold).
  RunResult R;
  const auto Add = [&R](TraceEventKind Kind, uint64_t StartNs,
                        uint64_t Arg1 = 0) {
    R.TraceEvents.push_back({StartNs, 0, 0, 0, Arg1, 0, Kind});
  };
  Add(TraceEventKind::Fork, 1000, /*Arg1=*/0);
  Add(TraceEventKind::Fork, 1100, /*Arg1=*/1);
  Add(TraceEventKind::Fork, 1200, /*Arg1=*/2);
  Add(TraceEventKind::Fork, 1300, /*Arg1=*/3);
  Add(TraceEventKind::PollWake, 2000, /*Arg1=*/2);
  Add(TraceEventKind::Retry, 3000);
  Add(TraceEventKind::Commit, 4000);
  Add(TraceEventKind::Commit, 5000);
  Add(TraceEventKind::ChunkExec, 6000);
  const std::string Path = ::testing::TempDir() + "trace_test_tracks.json";
  std::string Error;
  ASSERT_TRUE(R.writeChromeTrace(Path, &Error)) << Error;
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::string Json = Buf.str();
  // Every track starts at 0 at the earliest event, which lands at ts 0.
  EXPECT_NE(Json.find("\"name\": \"committed\", \"cat\": \"alter\", "
                      "\"ph\": \"C\", \"ts\": 0.000"),
            std::string::npos);
  EXPECT_EQ(Json.find("\"ring_depth_bytes\""), std::string::npos);
  int Braces = 0, Brackets = 0;
  for (char C : Json) {
    Braces += C == '{' ? 1 : C == '}' ? -1 : 0;
    Brackets += C == '[' ? 1 : C == ']' ? -1 : 0;
  }
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
  std::remove(Path.c_str());
  const std::map<std::string, uint64_t> Last = lastCounterValues(R);
  const std::map<std::string, uint64_t> Expected = {
      {"inflight_chunks", 2}, {"committed", 2}, {"retries", 1},
      {"warm_forks", 2},      {"cold_forks", 2}};
  EXPECT_EQ(Last, Expected);
}

TEST(ChromeTraceTest, CounterTracksEndAtTheRunTotalsOnEveryEngine) {
  // The derived tracks replay the engines' own counts: on the two fork
  // engines, the threaded engine and the stage engine the last point of
  // each running total equals the run's RunStats.
  ScopedTraceLevel Scope(TraceLevel::Events);
  const auto Check = [](const RunResult &R) {
    ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
    const std::map<std::string, uint64_t> Last = lastCounterValues(R);
    ASSERT_EQ(Last.size(), 5u);
    EXPECT_EQ(Last.at("committed"), R.Stats.NumCommitted);
    EXPECT_EQ(Last.at("retries"), R.Stats.NumRetries);
    EXPECT_EQ(Last.at("warm_forks"), R.Stats.WarmForks);
    EXPECT_EQ(Last.at("cold_forks"), R.Stats.ColdForks);
  };
  // A contended loop, so that the retries track moves too.
  alignas(8) static double Shared = 0.0;
  LoopSpec Spec;
  Spec.NumIterations = 16;
  Spec.Body = [](TxnContext &Ctx, int64_t) {
    Ctx.store(&Shared, Ctx.load(&Shared) + 1.0);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.ChunkFactor = 1;
  Config.Params.Conflict = ConflictPolicy::RAW;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Trace = TraceLevel::Events;
  {
    SCOPED_TRACE("forkjoin");
    ForkJoinExecutor Exec(Config);
    const RunResult R = Exec.run(Spec);
    EXPECT_GT(R.Stats.NumRetries, 0u);
    Check(R);
  }
  {
    SCOPED_TRACE("pipeline");
    PipelineExecutor Exec(Config);
    Check(Exec.run(Spec));
  }
  {
    SCOPED_TRACE("threaded");
    LockstepExecutor Exec(Config);
    const RunResult R = Exec.run(Spec);
    EXPECT_GT(R.Stats.NumRetries, 0u);
    Check(R);
  }
  {
    SCOPED_TRACE("staged");
    std::unique_ptr<Workload> W = makeWorkload("ssca2");
    W->setUp(0);
    const RunResult R = W->runScheduled(
        SchedulePolicy::Auto, W->resolveAnnotation(*W->paperAnnotation()),
        /*NumWorkers=*/3);
    EXPECT_EQ(R.ScheduleUsed, ScheduleKind::Staged);
    Check(R);
  }
}

//===----------------------------------------------------------------------===
// Metrics histograms and the runners' telemetry
//===----------------------------------------------------------------------===

namespace {

LatencyHistogram histogramOf(std::initializer_list<uint64_t> Values) {
  LatencyHistogram H;
  for (uint64_t V : Values)
    H.record(V);
  return H;
}

bool histogramsEqual(const LatencyHistogram &A, const LatencyHistogram &B) {
  if (A.Count != B.Count || A.Sum != B.Sum || A.Min != B.Min ||
      A.Max != B.Max)
    return false;
  for (unsigned I = 0; I != LatencyHistogram::NumBuckets; ++I)
    if (A.Buckets[I] != B.Buckets[I])
      return false;
  return true;
}

} // namespace

TEST(MetricsHistogramTest, MergeIsAssociativeAndCommutative) {
  // Parent-side merge order over child registries is arrival order, which
  // is nondeterministic — so the merge must not care. (A merge B) merge C
  // == A merge (B merge C), and A merge B == B merge A, across buckets and
  // the exact Count/Sum/Min/Max stats.
  const LatencyHistogram A = histogramOf({0, 1, 7, 4096, ~uint64_t(0)});
  const LatencyHistogram B = histogramOf({3, 3, 3, 1'000'000'000});
  const LatencyHistogram C = histogramOf({65535, 65536, 65537});

  LatencyHistogram Left = A;
  Left.merge(B);
  Left.merge(C);
  LatencyHistogram BC = B;
  BC.merge(C);
  LatencyHistogram Right = A;
  Right.merge(BC);
  EXPECT_TRUE(histogramsEqual(Left, Right));

  LatencyHistogram AB = A, BA = B;
  AB.merge(B);
  BA.merge(A);
  EXPECT_TRUE(histogramsEqual(AB, BA));

  // Merging an empty histogram is the identity (Min must not be clobbered
  // by the empty side's sentinel).
  LatencyHistogram WithEmpty = A;
  WithEmpty.merge(LatencyHistogram());
  EXPECT_TRUE(histogramsEqual(WithEmpty, A));

  // The percentile invariant the --metrics gate asserts, on the merged
  // distribution: p50 <= p99 <= max, with both clamped into [Min, Max].
  EXPECT_LE(Left.percentile(0.50), Left.percentile(0.99));
  EXPECT_LE(Left.percentile(0.99), Left.Max);
  EXPECT_GE(Left.percentile(0.50), Left.Min);
}

TEST(TimelineTest, MetricsOffLeavesNoTimelineAndNoRegistry) {
  ScopedTraceLevel Scope(TraceLevel::Off);
  std::vector<int64_t> Data(16, 0);
  LoopSpec Spec;
  Spec.NumIterations = 16;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.ChunkFactor = 4;
  Config.Metrics = false;
  ForkJoinExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  EXPECT_EQ(R.Status, RunStatus::Success);
  EXPECT_TRUE(R.TraceEvents.empty());
  EXPECT_TRUE(R.Metrics.empty());
}

TEST(TimelineTest, RunnersKeepEveryInvocationsMetricsAndTimeline) {
  // Two invocations through each runner, metrics and events on: the
  // accumulated registry holds every engine run's chunk, frame, validation
  // and commit samples (each histogram's count is that count), and the
  // timeline every commit event.
  ScopedTraceLevel Scope(TraceLevel::Events);
  std::vector<int64_t> Data(16, 0);
  LoopSpec Spec;
  Spec.NumIterations = 16;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.ChunkFactor = 4;
  Config.Metrics = true;
  Config.Trace = TraceLevel::Events;
  // Only the fork engines encode a commit frame per transaction.
  const auto Check = [&Spec](LoopRunner &Runner, bool Frames) {
    for (int Invocation = 0; Invocation != 2; ++Invocation)
      ASSERT_TRUE(Runner.runInner(Spec));
    Runner.release();
    const RunResult &R = Runner.result();
    EXPECT_GE(R.Stats.NumTransactions, 8u);
    EXPECT_EQ(R.Metrics.histogram(HistogramId::ChunkExecNs).Count,
              R.Stats.NumTransactions);
    EXPECT_EQ(R.Metrics.histogram(HistogramId::SerializeNs).Count,
              Frames ? R.Stats.NumTransactions : 0u);
    EXPECT_EQ(R.Metrics.histogram(HistogramId::ValidateNs).Count,
              R.Stats.NumTransactions);
    EXPECT_EQ(R.Metrics.histogram(HistogramId::CommitNs).Count,
              R.Stats.NumCommitted);
    EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::Commit),
              R.Stats.NumCommitted);
  };
  {
    SCOPED_TRACE("ExecutorLoopRunner over threads");
    LockstepExecutor Threads(Config);
    ExecutorLoopRunner Runner(Threads);
    Check(Runner, /*Frames=*/false);
  }
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline,
        ParallelEngine::Threaded}) {
    SCOPED_TRACE("RecoveringLoopRunner, engine " +
                 std::to_string(static_cast<int>(Engine)));
    RecoveringLoopRunner Runner(Engine, Config);
    Check(Runner, /*Frames=*/Engine != ParallelEngine::Threaded);
  }
}

//===----------------------------------------------------------------------===
// Buffered stdout across forks
//===----------------------------------------------------------------------===

TEST(ForkFlushTest, BufferedStdoutIsWrittenOnceAcrossForkEngineRuns) {
  // A sandboxed process sends its stdout, fully buffered, into a file,
  // leaves a marker in the buffer and runs both fork engines on both
  // transports. Their children inherit the buffer: unless the parent
  // flushes before it forks, a child that flushes stdio on its way out (as
  // forked children do under ThreadSanitizer) writes the marker again.
  const std::string Path = ::testing::TempDir() + "trace_test_stdout.txt";
  const SubprocessResult Sandbox = runInSandbox(
      [&Path](int) {
        static char StdoutBuf[1 << 16];
        if (!std::freopen(Path.c_str(), "w", stdout) ||
            std::setvbuf(stdout, StdoutBuf, _IOFBF, sizeof(StdoutBuf)) != 0)
          ::_exit(2);
        std::fputs("fork-flush-marker\n", stdout);
        std::vector<int64_t> Data(16, 0);
        LoopSpec Spec;
        Spec.NumIterations = 16;
        Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
          Ctx.store(&Data[static_cast<size_t>(I)], I);
        };
        ExecutorConfig Config;
        Config.NumWorkers = 2;
        Config.Params.ChunkFactor = 4;
        bool Ok = true;
        for (TransportKind Transport :
             {TransportKind::Pipe, TransportKind::Ring}) {
          Config.Transport = Transport;
          ForkJoinExecutor Rounds(Config);
          Ok = Ok && Rounds.run(Spec).succeeded();
          PipelineExecutor Pipe(Config);
          Ok = Ok && Pipe.run(Spec).succeeded();
        }
        std::fflush(stdout);
        ::_exit(Ok ? 0 : 3);
      },
      /*TimeoutSec=*/120);
  ASSERT_TRUE(Sandbox.Exited && Sandbox.ExitCode == 0)
      << "exit code " << Sandbox.ExitCode << ", signal " << Sandbox.Signal;
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::string Text = Buf.str();
  size_t Markers = 0;
  for (size_t At = Text.find("fork-flush-marker"); At != std::string::npos;
       At = Text.find("fork-flush-marker", At + 1))
    ++Markers;
  EXPECT_EQ(Markers, 1u) << Text.substr(0, 200);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===
// EnvFault classification
//===----------------------------------------------------------------------===

TEST(EnvFaultTest, ClassifierSeparatesMachineSinsFromSemanticFailures) {
  RunResult R;
  R.Status = RunStatus::Crash;
  // A crash with no infrastructure faults indicts the candidate.
  EXPECT_EQ(classifyRun(R, /*OutputValid=*/false), InferenceOutcome::Crash);
  // The same crash with fault counters nonzero indicts the environment.
  R.Stats.NumChildCrashes = 2;
  EXPECT_EQ(classifyRun(R, false), InferenceOutcome::EnvFault);
  R.Stats.NumChildCrashes = 0;
  R.Stats.NumWireRejects = 1;
  R.Status = RunStatus::Timeout;
  EXPECT_EQ(classifyRun(R, false), InferenceOutcome::EnvFault);
  R.Stats.NumWireRejects = 0;
  EXPECT_EQ(classifyRun(R, false), InferenceOutcome::Timeout);
  // A run that only completed through sequential recovery with faults
  // observed says nothing about the annotation either.
  R.Status = RunStatus::Success;
  R.Stats.Recovered = true;
  R.Stats.NumForkFailures = 3;
  EXPECT_EQ(classifyRun(R, true), InferenceOutcome::EnvFault);
  // Recovery without environment faults (e.g. semantic retry exhaustion)
  // falls through to the ordinary lattice.
  R.Stats.NumForkFailures = 0;
  EXPECT_EQ(classifyRun(R, true), InferenceOutcome::Success);
  // And a clean success is still a success even after faults were healed
  // inside the engine (no recovery): transient faults are not failures.
  R.Stats.Recovered = false;
  R.Stats.NumForkFailures = 1;
  EXPECT_EQ(classifyRun(R, true), InferenceOutcome::Success);
}

TEST(EnvFaultTest, StickyFaultPlanYieldsEnvFaultEndToEnd) {
  // A sticky child-kill drives the fork engine into sequential recovery;
  // classifyRun must report env.fault, not a semantic verdict.
  FaultPlan::global().clear();
  FaultPlan::global().arm(FaultKind::ChildKill, /*Chunk=*/1, /*Sticky=*/true);
  constexpr int64_t N = 24;
  std::vector<int64_t> Data(N, -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I * 3 + 1);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.ChunkFactor = 4;
  RecoveringLoopRunner Runner(ParallelEngine::ForkJoin, Config);
  ASSERT_TRUE(Runner.runInner(Spec));
  const RunResult R = Runner.result();
  FaultPlan::global().clear();
  ASSERT_EQ(R.Status, RunStatus::Success);
  ASSERT_TRUE(R.Stats.Recovered);
  EXPECT_GT(R.Stats.NumChildCrashes, 0u);
  EXPECT_EQ(classifyRun(R, /*OutputValid=*/true),
            InferenceOutcome::EnvFault);
  EXPECT_STREQ(inferenceOutcomeName(InferenceOutcome::EnvFault), "env.fault");
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 3 + 1);
}

//===----------------------------------------------------------------------===
// Recovery events in the merged timeline
//===----------------------------------------------------------------------===

namespace {

/// Runs 24 disjoint writes (6 chunks, 2 workers) under the ForkJoin
/// recovery driver with a sticky \p Kind fault on chunk 1. A Stall sleeps
/// 600 ms, past the deadline that \p SeqBaselineNs arms.
RunResult runRecoveringChainUnderStickyFault(FaultKind Kind,
                                             uint64_t SeqBaselineNs = 0) {
  FaultPlan::global().clear();
  FaultPlan::global().arm(Kind, /*Chunk=*/1, /*Sticky=*/true);
  FaultPlan::global().setStallNs(600'000'000);
  std::vector<int64_t> Data(24, -1);
  LoopSpec Spec;
  Spec.NumIterations = 24;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.ChunkFactor = 4;
  Config.Trace = TraceLevel::Events;
  Config.SeqBaselineNs = SeqBaselineNs;
  RecoveringLoopRunner Runner(ParallelEngine::ForkJoin, Config);
  EXPECT_TRUE(Runner.runInner(Spec));
  FaultPlan::global().clear();
  for (int64_t I = 0; I != 24; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I);
  return Runner.result();
}

} // namespace

TEST(RecoveryTraceTest, LadderEmitsSalvageBisectQuarantineEvents) {
  ScopedTraceLevel Scope(TraceLevel::Events);
  setDeterministicTraceClock(11);
  const RunResult R = runRecoveringChainUnderStickyFault(FaultKind::ChildKill);
  ASSERT_TRUE(R.Stats.Recovered);
  // The sticky chunk fault walks all three tiers; no full-tail fallback.
  EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::Recovery), 0u);
  EXPECT_GE(countKind(R.TraceEvents, TraceEventKind::FaultContained), 1u);
  EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::Salvage), 2u)
      << "both tier-1 attempts are recorded";
  EXPECT_EQ(countKind(R.TraceEvents, TraceEventKind::Bisect),
            R.Stats.BisectionRounds);
  uint64_t Quarantined = 0;
  for (const TraceEvent &E : R.TraceEvents)
    if (E.Kind == TraceEventKind::Quarantine) {
      EXPECT_EQ(E.Chunk, 1) << "quarantine events carry the poisoned chunk";
      Quarantined += E.Arg0;
    }
  EXPECT_EQ(Quarantined, R.Stats.QuarantinedIterations);
}

TEST(RecoveryTraceTest, FullTailFallbackStillEmitsARecoveryEvent) {
  // A stalled chunk trips the engine's deadline: the Timeout indicts no
  // chunk, so the ladder drops straight to its full-tail floor.
  ScopedTraceLevel Scope(TraceLevel::Events);
  setDeterministicTraceClock(11);
  const RunResult R = runRecoveringChainUnderStickyFault(
      FaultKind::Stall, /*SeqBaselineNs=*/1'000'000);
  ASSERT_TRUE(R.Stats.Recovered);
  EXPECT_EQ(R.Stats.QuarantinedIterations, 0u);
  EXPECT_EQ(R.Stats.SalvagedChunks, 0u);
  ASSERT_EQ(countKind(R.TraceEvents, TraceEventKind::Recovery), 1u);
  for (const TraceEvent &E : R.TraceEvents) {
    if (E.Kind == TraceEventKind::Recovery) {
      EXPECT_EQ(E.Arg0, R.Stats.RecoveredIterations);
    }
  }
}
