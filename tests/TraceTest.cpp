//===- tests/TraceTest.cpp - Telemetry, tracing, and attribution ----------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer end to end: RunStats edge cases (zero
/// denominators, saturated counters), trace-level parsing, the bounded
/// event buffer, the deterministic trace clock, region labels, the wire
/// TRACE section round trip through the fork engines (per-slot busy time
/// must reconcile with WorkerBusyNs), seeded determinism of the merged
/// timeline, conflict attribution naming the right granule, the Chrome
/// exporter's output shape, and the EnvFault inference classification —
/// both as a unit over synthetic RunResults and end to end with a sticky
/// fault plan armed.
///
//===----------------------------------------------------------------------===//

#include "inference/Outcome.h"
#include "memory/AccessSet.h"
#include "runtime/ForkJoinExecutor.h"
#include "runtime/LockstepExecutor.h"
#include "runtime/LoopRunner.h"
#include "runtime/PipelineExecutor.h"
#include "runtime/TraceSink.h"
#include "support/FaultInjection.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
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

//===----------------------------------------------------------------------===
// Trace level parsing and the bounded buffer
//===----------------------------------------------------------------------===

TEST(TraceLevelTest, ParseAcceptsTheThreeLevelsCaseInsensitively) {
  TraceLevel L = TraceLevel::Off;
  EXPECT_TRUE(parseTraceLevel("events", L));
  EXPECT_EQ(L, TraceLevel::Events);
  EXPECT_TRUE(parseTraceLevel("COUNTERS", L));
  EXPECT_EQ(L, TraceLevel::Counters);
  EXPECT_TRUE(parseTraceLevel("Off", L));
  EXPECT_EQ(L, TraceLevel::Off);
  L = TraceLevel::Counters;
  EXPECT_FALSE(parseTraceLevel("verbose", L));
  EXPECT_EQ(L, TraceLevel::Counters) << "failed parse must not clobber";
  // An empty value (ALTER_TRACE=) means Off, as do "0" and "off".
  EXPECT_TRUE(parseTraceLevel("", L));
  EXPECT_EQ(L, TraceLevel::Off);
}

TEST(TraceBufferTest, RecordIsANoOpBelowEvents) {
  for (TraceLevel Level : {TraceLevel::Off, TraceLevel::Counters}) {
    TraceBuffer Buf(Level);
    Buf.record(TraceEventKind::ChunkExec, 1, 0, 100, 50);
    EXPECT_TRUE(Buf.buffer().empty());
    EXPECT_EQ(Buf.dropped(), 0u);
  }
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
  EXPECT_TRUE(R.GranuleAborts.empty());
  EXPECT_EQ(R.TraceEventsDropped, 0u);
}

//===----------------------------------------------------------------------===
// Conflict attribution
//===----------------------------------------------------------------------===

TEST(AttributionTest, RawConflictNamesTheLabeledGranule) {
  // Every chunk reads and writes one shared labeled word under RAW +
  // OutOfOrder: all but the first commit of a round abort, and every abort
  // must be attributed to the shared word's granule.
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
  ASSERT_EQ(R.GranuleAborts.size(), 1u)
      << "one shared word => one aborting granule";
  const GranuleAbortStat &G = R.GranuleAborts[0];
  EXPECT_EQ(G.Aborts, R.Stats.NumRetries);
  EXPECT_EQ(G.GranuleKey,
            (reinterpret_cast<uintptr_t>(&Shared) >> 3) >> GranuleShift);
  EXPECT_EQ(traceLabelForWordKey(G.WitnessWordKey), "attr.shared");
  // The text summary surfaces the label.
  const std::string Summary = R.traceSummary();
  EXPECT_NE(Summary.find("attr.shared"), std::string::npos) << Summary;
  EXPECT_NE(Summary.find("conflict attribution"), std::string::npos);
  EXPECT_EQ(R.UnattributedAborts, 0u);
}

TEST(AttributionTest, CountersLevelAttributesWithoutATimeline) {
  ScopedTraceLevel Scope(TraceLevel::Counters);
  alignas(8) static double Shared = 0.0;
  Shared = 0.0;
  LoopSpec Spec;
  Spec.NumIterations = 8;
  Spec.Body = [](TxnContext &Ctx, int64_t) {
    Ctx.store(&Shared, Ctx.load(&Shared) + 1.0);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.ChunkFactor = 1;
  Config.Params.Conflict = ConflictPolicy::RAW;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Trace = TraceLevel::Counters;
  ForkJoinExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_EQ(R.Status, RunStatus::Success);
  EXPECT_TRUE(R.TraceEvents.empty()) << "Counters records no timeline";
  ASSERT_GT(R.Stats.NumRetries, 0u);
  EXPECT_FALSE(R.GranuleAborts.empty()) << "attribution still accumulates";
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

TEST(ChromeTraceTest, TimelineSamplesExportAsCounterTracks) {
  // The runtime timeline renders as Perfetto counter tracks ("ph":"C"),
  // one per sampled quantity, even when there are no duration events at
  // all (metrics on, tracing off).
  RunResult R;
  TimelineSample S;
  S.TimeNs = 1000;
  S.Committed = 3;
  S.InflightChunks = 2;
  S.RingDepthBytes = 4096;
  R.Timeline.push_back(S);
  S.TimeNs = 2000;
  S.Committed = 5;
  R.Timeline.push_back(S);
  const std::string Path = ::testing::TempDir() + "trace_test_counters.json";
  std::string Error;
  ASSERT_TRUE(R.writeChromeTrace(Path, &Error)) << Error;
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::string Json = Buf.str();
  EXPECT_NE(Json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(Json.find("\"inflight_chunks\""), std::string::npos);
  EXPECT_NE(Json.find("\"ring_depth_bytes\""), std::string::npos);
  EXPECT_NE(Json.find("\"committed\""), std::string::npos);
  // Timestamps normalize against the earliest SAMPLE when no events exist:
  // the first sample lands at ts 0.
  EXPECT_NE(Json.find("\"ts\": 0.000"), std::string::npos);
  int Braces = 0, Brackets = 0;
  for (char C : Json) {
    Braces += C == '{' ? 1 : C == '}' ? -1 : 0;
    Brackets += C == '[' ? 1 : C == ']' ? -1 : 0;
  }
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===
// Metrics histograms and the runtime timeline sampler
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

namespace {

/// A disjoint-writes loop on the warm-pool ring transport with metrics on
/// and tracing BELOW Events: the timeline sampler is then the only
/// traceNowNs caller in the parent, so under the seeded deterministic
/// clock the whole timeline must replay exactly. Two workers run chunks of
/// 4, so each round covers 8 of the \p N iterations. \p KillChunk >= 0
/// arms a one-shot ChildKill on that chunk (contained by the engine's
/// retry).
RunResult runSampledDisjoint(uint64_t ClockSeed, int64_t KillChunk = -1,
                             int64_t N = 48) {
  setDeterministicTraceClock(ClockSeed);
  FaultPlan::global().clear();
  if (KillChunk >= 0)
    FaultPlan::global().arm(FaultKind::ChildKill, KillChunk);
  std::vector<int64_t> Data(static_cast<size_t>(N), -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I + 11);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.ChunkFactor = 4;
  Config.Trace = TraceLevel::Counters;
  Config.Transport = TransportKind::Ring;
  Config.Metrics = true;
  ForkJoinExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  FaultPlan::global().clear();
  EXPECT_EQ(R.Status, RunStatus::Success);
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I + 11);
  return R;
}

/// Compares every deterministic TimelineSample field. BusyNs/SlotNs carry
/// real child CPU / wall time and are exempt by design.
void expectTimelinesEqual(const RunResult &A, const RunResult &B) {
  ASSERT_EQ(A.Timeline.size(), B.Timeline.size());
  for (size_t I = 0; I != A.Timeline.size(); ++I) {
    const TimelineSample &X = A.Timeline[I];
    const TimelineSample &Y = B.Timeline[I];
    EXPECT_EQ(X.TimeNs, Y.TimeNs) << "sample " << I;
    EXPECT_EQ(X.Committed, Y.Committed) << "sample " << I;
    EXPECT_EQ(X.Retries, Y.Retries) << "sample " << I;
    EXPECT_EQ(X.WarmForks, Y.WarmForks) << "sample " << I;
    EXPECT_EQ(X.ColdForks, Y.ColdForks) << "sample " << I;
    EXPECT_EQ(X.InflightChunks, Y.InflightChunks) << "sample " << I;
    EXPECT_EQ(X.RingDepthBytes, Y.RingDepthBytes) << "sample " << I;
  }
}

} // namespace

TEST(TimelineTest, SamplerIsDeterministicUnderTheWarmPool) {
  ScopedTraceLevel Scope(TraceLevel::Counters);
  // ForkJoin offers a sample at every round barrier, and the seeded clock
  // advances 1 us per read, so 1,100 rounds carry the run past the 1 ms
  // floor once.
  const RunResult A = runSampledDisjoint(11, /*KillChunk=*/-1, 8 * 1100);
  const RunResult B = runSampledDisjoint(11, /*KillChunk=*/-1, 8 * 1100);
  // The first barrier's sample, one a millisecond later, and the forced
  // sample at the finish.
  ASSERT_EQ(A.Timeline.size(), 3u);
  EXPECT_GE(A.Timeline[1].TimeNs - A.Timeline[0].TimeNs, 1'000'000u)
      << "samples are at least 1 ms apart on the trace clock";
  EXPECT_EQ(A.Timeline.back().Committed, A.Stats.NumCommitted);
  EXPECT_EQ(A.Metrics.counter(CounterId::TimelineSamples),
            A.Timeline.size());
  expectTimelinesEqual(A, B);
  // The merged registry is deterministic in its counting dimensions too.
  EXPECT_EQ(A.Metrics.counter(CounterId::ChildChunks),
            B.Metrics.counter(CounterId::ChildChunks));
  EXPECT_EQ(A.Metrics.counter(CounterId::ChildFrames),
            B.Metrics.counter(CounterId::ChildFrames));
  EXPECT_EQ(A.Metrics.histogram(HistogramId::ChunkExecNs).Count,
            B.Metrics.histogram(HistogramId::ChunkExecNs).Count);
}

TEST(TimelineTest, SamplerIsDeterministicUnderFaults) {
  // A one-shot injected kill adds a contained crash and a retry round; the
  // fault point is positional, so two identically seeded runs must still
  // produce identical timelines.
  ScopedTraceLevel Scope(TraceLevel::Counters);
  const RunResult A = runSampledDisjoint(7, /*KillChunk=*/1);
  const RunResult B = runSampledDisjoint(7, /*KillChunk=*/1);
  EXPECT_GT(A.Stats.NumChildCrashes, 0u);
  ASSERT_FALSE(A.Timeline.empty());
  expectTimelinesEqual(A, B);
  // The final sample reflects the recovered end state: all chunks
  // committed despite the kill.
  EXPECT_EQ(A.Timeline.back().Committed, A.Stats.NumCommitted);
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
  EXPECT_TRUE(R.Timeline.empty());
  EXPECT_TRUE(R.Metrics.empty());
}

TEST(TimelineTest, RunnersKeepEveryInvocationsMetricsAndTimeline) {
  // Two invocations through each runner, metrics on: the accumulated
  // registry holds every engine run's chunk samples and commits, and the
  // timeline every sample the sampler counted.
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
  const auto Check = [&Spec](LoopRunner &Runner) {
    for (int Invocation = 0; Invocation != 2; ++Invocation)
      ASSERT_TRUE(Runner.runInner(Spec));
    Runner.release();
    const RunResult &R = Runner.result();
    EXPECT_GE(R.Stats.NumTransactions, 8u);
    EXPECT_EQ(R.Metrics.histogram(HistogramId::ChunkExecNs).Count,
              R.Stats.NumTransactions);
    EXPECT_EQ(R.Metrics.counter(CounterId::ParentCommits),
              R.Stats.NumCommitted);
    EXPECT_EQ(R.Timeline.size(),
              R.Metrics.counter(CounterId::TimelineSamples));
  };
  {
    SCOPED_TRACE("ExecutorLoopRunner over threads");
    LockstepExecutor Threads(Config);
    ExecutorLoopRunner Runner(Threads);
    Check(Runner);
  }
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline,
        ParallelEngine::Threaded}) {
    SCOPED_TRACE("RecoveringLoopRunner, engine " +
                 std::to_string(static_cast<int>(Engine)));
    RecoveringLoopRunner Runner(Engine, Config);
    Check(Runner);
  }
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
