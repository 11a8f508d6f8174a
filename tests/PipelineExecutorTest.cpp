//===- tests/PipelineExecutorTest.cpp - Pipelined engine properties -------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Properties of the pipelined process engine and the compressed wire
/// format it shares with the round-barrier engine.
///
/// The pipeline retires OutOfOrder chunks in arrival order, which is
/// timing-dependent — so unlike the barriered engines these tests assert
/// the THEOREM-level guarantees (final-state equivalence, commit-order
/// serializability, in-order retirement, snapshot-isolation exactness)
/// rather than bit-identical schedules across engines:
///
///  Q1. Conflict-free loops match the sequential result under every
///      (ConflictPolicy x CommitOrderPolicy) combination, with reductions
///      enabled, and commit every chunk exactly once.
///  Q2. RAW/FULL runs equal the serial replay of their own commit order
///      (Theorems 4.1/4.2), and with InOrder equal sequential semantics
///      (Theorem 4.3).
///  Q3. InOrder retires in ascending chunk order regardless of conflicts.
///  Q4. Forced overlap produces retries, never lost updates.
///  Q5. A crashing or cap-tripping child surfaces as RunStatus::Crash.
///  Q6. Real workloads validate() under their paper annotation.
///
/// Plus round-trip and compression checks for the RLE access-set and
/// compact write-log encodings.
///
//===----------------------------------------------------------------------===//

#include "PropertyTest.h"

#include "runtime/PipelineExecutor.h"
#include "runtime/TxnWire.h"
#include "runtime/WorkerPool.h"
#include "support/Timer.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <numeric>
#include <poll.h>
#include <set>
#include <unistd.h>
#include <vector>

using namespace alter;

namespace {

void sleepMs(long Ms) {
  timespec Ts{0, Ms * 1000000L};
  while (::nanosleep(&Ts, &Ts) != 0 && errno == EINTR)
    ;
}

//===----------------------------------------------------------------------===
// Wire format round trips
//===----------------------------------------------------------------------===

std::vector<uintptr_t> sortedWords(const AccessSet &Set) {
  std::vector<uintptr_t> W = Set.words();
  std::sort(W.begin(), W.end());
  return W;
}

TEST(AccessSetWireTest, ScatteredKeysRoundTrip) {
  std::vector<double> Pool(4096);
  AccessSet Set;
  // Scattered picks with varied strides, plus one contiguous run.
  for (size_t I = 0; I < Pool.size(); I += 1 + (I * 7) % 61)
    Set.insert(&Pool[I]);
  Set.insertRange(&Pool[100], 64 * sizeof(double));

  std::vector<uint8_t> Wire;
  serializeAccessSet(Wire, Set);
  AccessSet Back;
  size_t Consumed = 0;
  EXPECT_TRUE(deserializeAccessSet(Wire.data(), Wire.size(), Back, Consumed));
  EXPECT_EQ(Consumed, Wire.size());
  EXPECT_EQ(sortedWords(Back), sortedWords(Set));
}

TEST(AccessSetWireTest, EmptySetRoundTrips) {
  AccessSet Set;
  std::vector<uint8_t> Wire;
  serializeAccessSet(Wire, Set);
  // The wire form is the word count, the run count and the runs — nothing
  // else — so an empty set is two zero varints.
  EXPECT_EQ(Wire, (std::vector<uint8_t>{0, 0}));
  AccessSet Back;
  size_t Consumed = 0;
  EXPECT_TRUE(deserializeAccessSet(Wire.data(), Wire.size(), Back, Consumed));
  EXPECT_EQ(Consumed, Wire.size());
  EXPECT_TRUE(Back.empty());
}

TEST(AccessSetWireTest, ContiguousRangesCompressBelowRaw) {
  // An induction-variable range: 4096 words in a handful of runs must
  // serialize far below the 8-bytes-per-word raw form.
  std::vector<double> Data(4096);
  AccessSet Set;
  Set.insertRange(Data.data(), Data.size() * sizeof(double));
  std::vector<uint8_t> Wire;
  serializeAccessSet(Wire, Set);
  EXPECT_LT(Wire.size(), rawAccessSetBytes(Set) / 10)
      << "range-heavy sets must collapse to a few RLE runs";
}

TEST(WriteLogCompactTest, RoundTripAppliesIdentically) {
  std::vector<uint64_t> Target(64, 0);
  WriteLog Log;
  // Sequential stores, a stride pattern, a rewrite, and an odd size.
  for (size_t I = 0; I != 16; ++I) {
    const uint64_t V = 100 + I;
    Log.record(&Target[I], &V, sizeof(V));
  }
  for (size_t I = 20; I < 40; I += 3) {
    const uint32_t V = static_cast<uint32_t>(7 * I);
    Log.record(reinterpret_cast<uint32_t *>(&Target[I]), &V, sizeof(V));
  }
  const uint64_t Rewrite = 999;
  Log.record(&Target[3], &Rewrite, sizeof(Rewrite));

  std::vector<uint8_t> Wire;
  Log.serializeCompact(Wire);
  WriteLog Back;
  ASSERT_TRUE(
      WriteLog::deserializeCompactChecked(Wire.data(), Wire.size(), Back));
  ASSERT_EQ(Back.numEntries(), Log.numEntries());

  std::vector<uint64_t> FromOriginal(64, 0), FromCopy(64, 0);
  Target = FromOriginal;
  Log.apply();
  FromOriginal.assign(Target.begin(), Target.end());
  std::fill(Target.begin(), Target.end(), 0);
  Back.apply();
  FromCopy.assign(Target.begin(), Target.end());
  EXPECT_EQ(FromCopy, FromOriginal);
  EXPECT_EQ(FromOriginal[3], 999u) << "program order must be preserved";
}

TEST(MetricsRegistryTest, SerializeDeserializeRoundTrips) {
  MetricsRegistry Reg;
  Reg.addCounter(CounterId::RingWaits, 2);
  Reg.gaugeMax(GaugeId::MaxWriteLogBytes, 4096);
  Reg.record(HistogramId::ChunkExecNs, 0);
  Reg.record(HistogramId::ChunkExecNs, 1234);
  Reg.record(HistogramId::ChunkExecNs, ~uint64_t(0));
  Reg.record(HistogramId::WriteLogBytes, 512);

  std::vector<uint8_t> Blob;
  Reg.serialize(Blob);
  MetricsRegistry Back;
  ASSERT_TRUE(MetricsRegistry::deserialize(Blob.data(), Blob.size(), Back));
  EXPECT_EQ(Back.counter(CounterId::RingWaits), 2u);
  EXPECT_EQ(Back.histogram(HistogramId::CommitNs).Count, 0u);
  EXPECT_EQ(Back.gauge(GaugeId::MaxWriteLogBytes), 4096u);
  const LatencyHistogram &H = Back.histogram(HistogramId::ChunkExecNs);
  EXPECT_EQ(H.Count, 3u);
  EXPECT_EQ(H.Min, 0u);
  EXPECT_EQ(H.Max, ~uint64_t(0));
  EXPECT_EQ(Back.histogram(HistogramId::WriteLogBytes).Count, 1u);
  EXPECT_TRUE(Back.histogram(HistogramId::ValidateNs).empty());

  // An empty registry round-trips to an empty registry in a few bytes.
  MetricsRegistry Empty, EmptyBack;
  std::vector<uint8_t> EmptyBlob;
  Empty.serialize(EmptyBlob);
  EXPECT_LE(EmptyBlob.size(), 32u);
  ASSERT_TRUE(MetricsRegistry::deserialize(EmptyBlob.data(),
                                           EmptyBlob.size(), EmptyBack));
  EXPECT_TRUE(EmptyBack.empty());

  // Truncated and padded blobs must be rejected, never trusted.
  MetricsRegistry Junk;
  EXPECT_FALSE(
      MetricsRegistry::deserialize(Blob.data(), Blob.size() - 1, Junk));
  std::vector<uint8_t> Padded = Blob;
  Padded.push_back(0);
  EXPECT_FALSE(
      MetricsRegistry::deserialize(Padded.data(), Padded.size(), Junk));
}

namespace {

/// Executes a small disjoint-stores chunk transactionally and encodes its
/// commit frame, with or without a child metrics registry.
std::vector<uint8_t> encodeTestFrame(const LoopSpec &Spec,
                                     const ExecutorConfig &Config,
                                     std::vector<int64_t> &Data,
                                     MetricsRegistry *Metrics) {
  std::fill(Data.begin(), Data.end(), 0);
  TxnContext Ctx(ContextMode::Transactional, &Config.Params, &Spec,
                 Config.Allocator, /*Worker=*/1, Config.Limits);
  Ctx.beginTxn();
  for (int64_t I = 0; I != 4; ++I)
    Spec.Body(Ctx, I);
  Ctx.captureRedo();
  TraceBuffer Trace(TraceLevel::Off);
  return encodeCommitFrame(Ctx, Config, /*Worker=*/1, /*Chunk=*/0,
                           /*WorkNs=*/1234, Trace, Metrics);
}

uint64_t frameMagic(const std::vector<uint8_t> &Frame) {
  uint64_t Magic = 0;
  std::memcpy(&Magic, Frame.data(), sizeof(Magic));
  return Magic;
}

} // namespace

TEST(CommitFrameTest, RoundTripsWithAndWithoutMetrics) {
  std::vector<int64_t> Data(16, 0);
  LoopSpec Spec;
  Spec.NumIterations = 16;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I + 3);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 1;

  // Without a registry: the one frame format with an empty METRICS
  // section.
  const std::vector<uint8_t> Plain =
      encodeTestFrame(Spec, Config, Data, nullptr);
  EXPECT_EQ(frameMagic(Plain), CommitFrameMagic);
  ChildReport RepPlain;
  std::string Error;
  ASSERT_TRUE(decodeChildReport(Plain, Spec, Config.Params, RepPlain, Error))
      << Error;
  EXPECT_TRUE(RepPlain.Metrics.empty());

  // With a registry: the same format carries it in the METRICS section
  // and resets it (per-frame deltas).
  MetricsRegistry Reg;
  Reg.record(HistogramId::ChunkExecNs, 1234);
  Reg.addCounter(CounterId::RingWaits);
  const std::vector<uint8_t> WithMetrics =
      encodeTestFrame(Spec, Config, Data, &Reg);
  EXPECT_EQ(frameMagic(WithMetrics), CommitFrameMagic);
  EXPECT_GT(WithMetrics.size(), Plain.size());
  EXPECT_TRUE(Reg.empty()) << "encode must take-and-reset the registry";
  ChildReport Rep;
  ASSERT_TRUE(decodeChildReport(WithMetrics, Spec, Config.Params, Rep, Error))
      << Error;
  EXPECT_EQ(Rep.Metrics.counter(CounterId::RingWaits), 1u);
  EXPECT_EQ(Rep.Metrics.histogram(HistogramId::ChunkExecNs).Count, 1u);
  EXPECT_EQ(Rep.Metrics.histogram(HistogramId::ChunkExecNs).Sum, 1234u);
  EXPECT_EQ(Rep.Metrics.histogram(HistogramId::SerializeNs).Count, 1u);
  EXPECT_EQ(Rep.Metrics.histogram(HistogramId::WriteLogBytes).Count, 1u);
  // WireFrameBytes excludes the trace and metrics sections (the registry
  // cannot contain its own size): header + fixed fields + body only.
  const LatencyHistogram &FrameH =
      Rep.Metrics.histogram(HistogramId::WireFrameBytes);
  EXPECT_EQ(FrameH.Count, 1u);
  EXPECT_LT(FrameH.Max, WithMetrics.size());

  // The two reports agree on everything the commit path consumes.
  EXPECT_EQ(RepPlain.WorkNs, Rep.WorkNs);
  EXPECT_EQ(RepPlain.Counts.BytesWritten, Rep.Counts.BytesWritten);
  EXPECT_EQ(RepPlain.Writes.sizeWords(), Rep.Writes.sizeWords());
  EXPECT_EQ(RepPlain.Log.numEntries(), Rep.Log.numEntries());

  // A truncated message is a rejected frame, not a crash.
  std::vector<uint8_t> Truncated(WithMetrics.begin(), WithMetrics.end() - 1);
  ChildReport RepT;
  EXPECT_FALSE(decodeChildReport(Truncated, Spec, Config.Params, RepT, Error));

  // The retired ALTER4 magic is no longer a frame.
  std::vector<uint8_t> OldMagic = Plain;
  const uint64_t Alter4 = 0x34414c544552ULL; // "ALTER4" little-endian
  std::memcpy(OldMagic.data(), &Alter4, sizeof(Alter4));
  EXPECT_FALSE(decodeChildReport(OldMagic, Spec, Config.Params, RepT, Error));
  EXPECT_EQ(Error, "bad message magic");
}

TEST(WriteLogCompactTest, SequentialStoresCompressBelowRaw) {
  std::vector<double> Target(1024);
  WriteLog Log;
  for (double &D : Target)
    Log.record(&D, &D, sizeof(D));
  std::vector<uint8_t> Wire;
  Log.serializeCompact(Wire);
  // Raw form: 16 table bytes/entry + payload. Compact: ~2 + payload.
  EXPECT_LT(Wire.size(), Log.serializedSize() * 2 / 3);
}

//===----------------------------------------------------------------------===
// Policy-matrix properties (Q1-Q3)
//===----------------------------------------------------------------------===

struct MatrixParam {
  ConflictPolicy Conflict;
  CommitOrderPolicy CommitOrder;
  unsigned Workers;
  int Cf;

  std::string name() const {
    std::string Name = conflictPolicyName(Conflict);
    Name += commitOrderPolicyName(CommitOrder);
    Name += "W" + std::to_string(Workers) + "Cf" + std::to_string(Cf);
    return Name;
  }
};

std::vector<MatrixParam> allConfigurations() {
  std::vector<MatrixParam> Params;
  for (ConflictPolicy Conflict :
       {ConflictPolicy::FULL, ConflictPolicy::RAW, ConflictPolicy::WAW,
        ConflictPolicy::NONE})
    for (CommitOrderPolicy Order :
         {CommitOrderPolicy::InOrder, CommitOrderPolicy::OutOfOrder})
      for (unsigned Workers : {2u, 4u})
        for (int Cf : {1, 5})
          Params.push_back({Conflict, Order, Workers, Cf});
  return Params;
}

/// Same contended shape as PolicyMatrixTest's MixedLoop: neighbor reads,
/// own writes, a hot shared cell.
struct MixedLoop {
  static constexpr int64_t N = 40;
  std::vector<int64_t> Data;
  int64_t Hot = 0;

  MixedLoop() : Data(N + 1, 1) {}

  LoopSpec spec() {
    LoopSpec S;
    S.Name = "pipeline.mixed";
    S.NumIterations = N;
    S.Body = [this](TxnContext &Ctx, int64_t I) {
      const int64_t Left = Ctx.load(&Data[static_cast<size_t>(I)]);
      const int64_t Right = Ctx.load(&Data[static_cast<size_t>(I) + 1]);
      Ctx.store(&Data[static_cast<size_t>(I)], Left + Right + I);
      if (I % 7 == 0) {
        const int64_t H = Ctx.load(&Hot);
        Ctx.store(&Hot, H + I);
      }
    };
    return S;
  }

  std::vector<int64_t> state() const {
    std::vector<int64_t> S = Data;
    S.push_back(Hot);
    return S;
  }
};

bool everywhere(const MatrixParam &) { return true; }

bool tracksReads(const MatrixParam &P) {
  return P.Conflict == ConflictPolicy::RAW ||
         P.Conflict == ConflictPolicy::FULL;
}

bool isInOrder(const MatrixParam &P) {
  return P.CommitOrder == CommitOrderPolicy::InOrder;
}

/// Theorem 4.3's corner: read tracking with in-order commits.
bool isTlsCorner(const MatrixParam &P) {
  return tracksReads(P) && isInOrder(P);
}

class PipelineMatrix : public PropertyTest<MatrixParam> {
public:
  static constexpr const char *Suite = "Lattice/PipelineMatrix";
  static std::vector<MatrixParam> grid() { return allConfigurations(); }
  static std::string name(const MatrixParam &P) { return P.name(); }

protected:
  ExecutorConfig config() const {
    ExecutorConfig Config;
    Config.NumWorkers = GetParam().Workers;
    Config.Params.Conflict = GetParam().Conflict;
    Config.Params.CommitOrder = GetParam().CommitOrder;
    Config.Params.ChunkFactor = GetParam().Cf;
    return Config;
  }
};

// Q1: disjoint writes + an exact reduction match sequential under every
// combination, and every chunk commits exactly once.
ALTER_PROPERTY(PipelineMatrix, DisjointLoopWithReductionMatchesSequential,
               everywhere) {
  constexpr int64_t N = 48;
  std::vector<int64_t> Cells(N, 0);
  double Sum = 0.0;

  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Reductions.push_back({"sum", &Sum, ScalarKind::F64});
  Spec.Body = [&Cells](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Cells[static_cast<size_t>(I)], I * 3 + 1);
    // Quarter values are exactly representable: the sum is independent of
    // commit order, so OutOfOrder arrival timing cannot perturb it.
    Ctx.redUpdateF(0, ReduceOp::Plus,
                   static_cast<double>((I * 31) % 97) + 0.25);
  };
  ExecutorConfig Config = config();
  Config.Params.Reductions.push_back({0, ReduceOp::Plus});
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;

  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Cells[static_cast<size_t>(I)], I * 3 + 1);
  double Expected = 0.0;
  for (int64_t I = 0; I != N; ++I)
    Expected += static_cast<double>((I * 31) % 97) + 0.25;
  EXPECT_DOUBLE_EQ(Sum, Expected);

  const int64_t NumChunks = (N + GetParam().Cf - 1) / GetParam().Cf;
  ASSERT_EQ(R.CommitOrder.size(), static_cast<size_t>(NumChunks));
  std::set<int64_t> Unique(R.CommitOrder.begin(), R.CommitOrder.end());
  EXPECT_EQ(Unique.size(), R.CommitOrder.size())
      << "every chunk commits exactly once";
  EXPECT_EQ(R.Stats.NumCommitted, static_cast<uint64_t>(NumChunks));
  EXPECT_GT(R.Stats.WireBytes, 0u);
  EXPECT_GT(R.Stats.WorkerBusyNs, 0u);
}

// Q2: commit-order serializability under read-tracking policies (the only
// ones that promise it).
ALTER_PROPERTY(PipelineMatrix, ReadTrackingPoliciesAreCommitOrderSerializable,
               tracksReads) {
  MixedLoop Parallel;
  PipelineExecutor Exec(config());
  const RunResult R = Exec.run(Parallel.spec());
  ASSERT_TRUE(R.succeeded()) << R.Detail;

  MixedLoop Replay;
  LoopSpec Spec = Replay.spec();
  TxnContext Ctx(ContextMode::Passthrough, nullptr, &Spec, nullptr, 0);
  for (int64_t Chunk : R.CommitOrder) {
    const int64_t First = Chunk * GetParam().Cf;
    const int64_t Last =
        std::min<int64_t>(First + GetParam().Cf, MixedLoop::N);
    for (int64_t I = First; I != Last; ++I)
      Spec.Body(Ctx, I);
  }
  EXPECT_EQ(Parallel.state(), Replay.state())
      << "execution must equal its commit-order serialization";
}

// Q3: in-order retirement.
ALTER_PROPERTY(PipelineMatrix, InOrderRetiresInProgramOrder, isInOrder) {
  MixedLoop Loop;
  PipelineExecutor Exec(config());
  const RunResult R = Exec.run(Loop.spec());
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_TRUE(std::is_sorted(R.CommitOrder.begin(), R.CommitOrder.end()))
      << "InOrder must retire chunks in ascending program order";
}

// Q2b: InOrder + read tracking is Theorem 4.3 — sequential semantics.
ALTER_PROPERTY(PipelineMatrix, TlsPointMatchesSequential, isTlsCorner) {
  MixedLoop Parallel;
  PipelineExecutor Exec(config());
  ASSERT_TRUE(Exec.run(Parallel.spec()).succeeded());

  MixedLoop Seq;
  LoopSpec Spec = Seq.spec();
  TxnContext Ctx(ContextMode::Passthrough, nullptr, &Spec, nullptr, 0);
  for (int64_t I = 0; I != MixedLoop::N; ++I)
    Spec.Body(Ctx, I);
  EXPECT_EQ(Parallel.state(), Seq.state())
      << "Theorem 4.3: RAW + InOrder equals sequential semantics";
}

//===----------------------------------------------------------------------===
// Q4: forced overlap — retries happen and updates are never lost
//===----------------------------------------------------------------------===

class PipelineForcedRetry
    : public ::testing::TestWithParam<
          std::tuple<ConflictPolicy, CommitOrderPolicy>> {};

TEST_P(PipelineForcedRetry, OverlappingIncrementsRetryWithoutLostUpdates) {
  // Two chunks, two workers, chunk factor 1: both fork before either
  // commits (each sleeps well past the fork skew), so the second validator
  // must observe the first's commit and retry. The shared counter stays
  // exact through the retry.
  int64_t Shared = 0;
  LoopSpec Spec;
  Spec.NumIterations = 2;
  Spec.Body = [&Shared](TxnContext &Ctx, int64_t) {
    const int64_t V = Ctx.load(&Shared);
    sleepMs(30);
    Ctx.store(&Shared, V + 1);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.Conflict = std::get<0>(GetParam());
  Config.Params.CommitOrder = std::get<1>(GetParam());
  Config.Params.ChunkFactor = 1;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_EQ(Shared, 2) << "no lost update";
  EXPECT_GE(R.Stats.NumRetries, 1u) << "the overlap must conflict";
  EXPECT_EQ(R.Stats.NumCommitted, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Overlap, PipelineForcedRetry,
    ::testing::Combine(::testing::Values(ConflictPolicy::RAW,
                                         ConflictPolicy::WAW),
                       ::testing::Values(CommitOrderPolicy::InOrder,
                                         CommitOrderPolicy::OutOfOrder)),
    [](const auto &Info) {
      return std::string(conflictPolicyName(std::get<0>(Info.param))) +
             commitOrderPolicyName(std::get<1>(Info.param));
    });

// Livelock guard: a chunk that keeps conflicting under OutOfOrder is
// eventually drained and run solo, so heavy contention still terminates.
TEST(PipelineStarvationTest, HeavyContentionTerminatesExactly) {
  std::vector<int64_t> Cells(2, 0);
  LoopSpec Spec;
  Spec.NumIterations = 32;
  Spec.Body = [&Cells](TxnContext &Ctx, int64_t I) {
    int64_t *Cell = &Cells[static_cast<size_t>(I % 2)];
    Ctx.store(Cell, Ctx.load(Cell) + 1);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.Conflict = ConflictPolicy::RAW;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Params.ChunkFactor = 1;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_EQ(Cells[0], 16);
  EXPECT_EQ(Cells[1], 16);
  EXPECT_EQ(R.Stats.NumCommitted, 32u);
}

//===----------------------------------------------------------------------===
// Q5: crash surfacing
//===----------------------------------------------------------------------===

TEST(PipelineCrashTest, AbnormalChildExitSurfacesAsCrash) {
  std::vector<int64_t> Cells(8, 0);
  LoopSpec Spec;
  Spec.NumIterations = 8;
  Spec.Body = [&Cells](TxnContext &Ctx, int64_t I) {
    if (I == 3)
      ::_exit(7); // only ever runs in a forked child
    Ctx.store(&Cells[static_cast<size_t>(I)], I);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.Conflict = ConflictPolicy::NONE;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Params.ChunkFactor = 1;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  EXPECT_EQ(R.Status, RunStatus::Crash);
  EXPECT_FALSE(R.Detail.empty());
}

TEST(PipelineCrashTest, AccessSetCapSurfacesAsCrash) {
  std::vector<double> Data(4096);
  double Sink = 0;
  LoopSpec Spec;
  Spec.NumIterations = 4;
  Spec.Body = [&Data, &Sink](TxnContext &Ctx, int64_t) {
    double Acc = 0;
    for (double &D : Data)
      Acc += Ctx.load(&D);
    Ctx.store(&Sink, Acc);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.Conflict = ConflictPolicy::RAW; // track the huge read set
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Params.ChunkFactor = 1;
  Config.Limits.MaxAccessSetBytes = 1024;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  EXPECT_EQ(R.Status, RunStatus::Crash);
}

//===----------------------------------------------------------------------===
// Q6: real workloads under their paper annotation
//===----------------------------------------------------------------------===

class PipelineWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineWorkload, ValidatesUnderPaperAnnotation) {
  auto Ref = makeWorkload(GetParam());
  Ref->setUp(0);
  Ref->runSequential();
  const std::vector<double> RefSig = Ref->outputSignature();

  auto W = makeWorkload(GetParam());
  W->setUp(0);
  const RuntimeParams Params = W->resolveAnnotation(*W->paperAnnotation());
  const RunResult R = W->runPipeline(Params, /*NumWorkers=*/3);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_TRUE(W->validate(RefSig))
      << "pipelined run must satisfy the workload's own correctness "
         "criterion";
  EXPECT_GT(R.Stats.WireBytes, 0u);
}

TEST_P(PipelineWorkload, ValidatesUnderTls) {
  // The InOrder + read-tracking corner (Theorem 4.3) through real state.
  auto Ref = makeWorkload(GetParam());
  Ref->setUp(0);
  Ref->runSequential();
  const std::vector<double> RefSig = Ref->outputSignature();

  auto W = makeWorkload(GetParam());
  W->setUp(0);
  const RuntimeParams Params =
      paramsForSequentialSpeculation(W->defaultChunkFactor());
  const RunResult R = W->runPipeline(Params, /*NumWorkers=*/2);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_TRUE(W->validate(RefSig));
}

// Kept to fast loops: one with reductions enabled (kmeans: + reduction),
// two without (floyd: StaleReads, genome: OutOfOrder).
INSTANTIATE_TEST_SUITE_P(Paper, PipelineWorkload,
                         ::testing::Values("floyd", "kmeans", "genome"),
                         [](const auto &Info) { return Info.param; });

//===----------------------------------------------------------------------===
// Steady-state transport: warm pool + commit rings vs the cold pipe path
//===----------------------------------------------------------------------===

/// A disjoint-writes loop with enough chunks to reach steady state.
RunResult runDisjointOnTransport(TransportKind Transport,
                                 std::vector<int64_t> &Data,
                                 unsigned Workers = 4) {
  constexpr int64_t N = 64;
  Data.assign(N, -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I * 5 + 2);
  };
  ExecutorConfig Config;
  Config.NumWorkers = Workers;
  Config.Params.ChunkFactor = 2;
  Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
  Config.Transport = Transport;
  PipelineExecutor Exec(Config);
  return Exec.run(Spec);
}

TEST(TransportTest, RingAndPipeProduceIdenticalOutput) {
  std::vector<int64_t> RingData, PipeData;
  const RunResult Ring = runDisjointOnTransport(TransportKind::Ring, RingData);
  const RunResult Pipe = runDisjointOnTransport(TransportKind::Pipe, PipeData);
  ASSERT_TRUE(Ring.succeeded()) << Ring.Detail;
  ASSERT_TRUE(Pipe.succeeded()) << Pipe.Detail;
  EXPECT_EQ(RingData, PipeData);
  EXPECT_EQ(Ring.Stats.NumCommitted, Pipe.Stats.NumCommitted);
  EXPECT_EQ(Ring.CommitOrder, Pipe.CommitOrder)
      << "InOrder retirement is transport-independent";
}

TEST(TransportTest, SteadyStateForksAreWarm) {
  std::vector<int64_t> Data;
  const RunResult R = runDisjointOnTransport(TransportKind::Ring, Data);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_GT(R.Stats.WarmForks, 0u);
  EXPECT_GT(R.Stats.warmForkRate(), 0.9)
      << "with a healthy pool, (almost) every chunk re-forks warm";
  EXPECT_EQ(R.Stats.PoolFaults, 0u);
}

TEST(TransportTest, PipeTransportNeverTouchesThePool) {
  std::vector<int64_t> Data;
  const RunResult R = runDisjointOnTransport(TransportKind::Pipe, Data);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_EQ(R.Stats.WarmForks, 0u);
  EXPECT_GT(R.Stats.ColdForks, 0u);
}

TEST(TransportTest, RingCopiesOrdersOfMagnitudeFewerWireBytes) {
  // Pipe copies every framed commit message through the kernel; Ring
  // copies only the 1-byte doorbells. The records themselves travel
  // through shared memory (WireBytes counts them identically either way).
  std::vector<int64_t> Data;
  const RunResult Ring = runDisjointOnTransport(TransportKind::Ring, Data);
  const RunResult Pipe = runDisjointOnTransport(TransportKind::Pipe, Data);
  ASSERT_TRUE(Ring.succeeded());
  ASSERT_TRUE(Pipe.succeeded());
  EXPECT_GT(Pipe.Stats.WireBytesCopied, 0u);
  EXPECT_LT(Ring.Stats.WireBytesCopied, Pipe.Stats.WireBytesCopied / 10)
      << "ring wire traffic must be doorbells, not records";
  EXPECT_GT(Ring.Stats.WireBytes, 0u)
      << "the records themselves still flow (through shared memory)";
}

TEST(TransportTest, SteadyStateRedispatchesWithoutForking) {
  // The fork-free steady state: once a slot's first warm child is
  // resident, subsequent chunks are redispatched to it over the work pipe
  // with no fork at all. One worker makes the schedule deterministic —
  // every chunk completes AND retires before the next dispatch, so of the
  // 32 chunks only the first can fork (a sliver of slack covers the
  // benign race where the Finish doorbell is written a beat after the
  // parent already read the record out of the ring).
  std::vector<int64_t> Data;
  const RunResult R =
      runDisjointOnTransport(TransportKind::Ring, Data, /*Workers=*/1);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_GE(R.Stats.ChildReuses, 24u)
      << "nearly every chunk must ride the already-resident child";
  EXPECT_LT(R.Stats.ChildReuses, R.Stats.WarmForks)
      << "reuses are counted inside WarmForks, never beyond them";
  for (int64_t I = 0; I != 64; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 5 + 2);
}

TEST(TransportTest, PipelinedRedispatchKeepsDisjointOutputExact) {
  // The same loop at full width: reuse counts are scheduling-dependent
  // here (a slot refilled before its parked InOrder commit retires forks
  // instead), so assert only the invariants and the output.
  std::vector<int64_t> Data;
  const RunResult R = runDisjointOnTransport(TransportKind::Ring, Data);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_LE(R.Stats.ChildReuses, R.Stats.WarmForks);
  for (int64_t I = 0; I != 64; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 5 + 2);
}

TEST(TransportTest, ReuseChainsAreBoundedByMaxChildReuse) {
  // A resident child takes at most 64 consecutive redispatches before its
  // slot re-forks from the template: the bound that caps snapshot
  // staleness (and with it conflict-epoch retention) in runs that never
  // fail a validation. One worker on disjoint writes is such a run, and
  // 160 chunks carry it past the cap twice.
  constexpr int64_t N = 160;
  std::vector<int64_t> Data(N, -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I * 7 + 3);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 1;
  Config.Params.ChunkFactor = 1;
  Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
  Config.Transport = TransportKind::Ring;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  const uint64_t Forks = R.Stats.WarmForks - R.Stats.ChildReuses;
  EXPECT_GT(R.Stats.ChildReuses, 64u) << "the run must pass the cap";
  EXPECT_GE(Forks, 3u) << "160 chunks need at least three chains";
  EXPECT_LE(R.Stats.ChildReuses, 64 * Forks)
      << "no chain may exceed 64 reuses";
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 7 + 3);
}

TEST(TransportTest, ConflictHeavyLoopStaysCorrectUnderReuse) {
  // Every iteration read-modify-writes one shared accumulator, so chunks
  // abort constantly. An aborted child's memory holds uncommitted writes
  // and must never be redispatched (the commit gate forces a re-fork);
  // if poisoned memory ever leaked into a commit, the sum would be wrong.
  constexpr int64_t N = 48;
  int64_t Acc = 0;
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Acc](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Acc, Ctx.load(&Acc) + I + 1);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.ChunkFactor = 2;
  Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
  Config.Transport = TransportKind::Ring;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_GT(R.Stats.NumRetries, 0u)
      << "the loop must actually conflict for this test to mean anything";
  EXPECT_EQ(Acc, N * (N + 1) / 2)
      << "aborted-child memory must never reach committed state";
}

/// Runs iteration \p Iter as chunk \p Iter on slot 0 of \p Pool, waits for
/// its record, and decodes it into \p Rep.
void runOnSlotZero(WorkerPool &Pool, const LoopSpec &Spec,
                   const ExecutorConfig &Config, int64_t Iter,
                   ChunkChannel &Ch, ChildReport &Rep) {
  ASSERT_TRUE(Pool.warmFork(0, Iter, Iter, Iter + 1, ArmedFault(), Ch));
  const uint64_t Deadline = nowNs() + 10'000'000'000ULL;
  while (!Pool.pump(0, Ch)) {
    ASSERT_LT(nowNs(), Deadline) << "chunk " << Iter << " never completed";
    pollfd Pfd{Ch.PollFd, POLLIN, 0};
    ::poll(&Pfd, 1, 100);
  }
  ASSERT_FALSE(Ch.Abnormal);
  std::string Error;
  ASSERT_TRUE(decodeChildReport(Ch.Buf, Spec, Config.Params, Rep, Error))
      << Error;
}

TEST(TransportTest, CaughtUpRedispatchReadsCommittedState) {
  // Slot 0's child is forked before another worker commits Shared = 42.
  // With catch-up engaged, redispatching that resident child must replay
  // the commit first, so the chunk copies 42 into Out — a redispatch that
  // keeps the fork-time snapshot would copy the stale 1. The parent's own
  // Shared stays 1, so only the pool's commit stream can deliver 42.
  int64_t Shared = 1;
  int64_t Out = 0;
  LoopSpec Spec;
  Spec.NumIterations = 2;
  Spec.Body = [&Shared, &Out](TxnContext &Ctx, int64_t I) {
    if (I == 1)
      Ctx.store(&Out, Ctx.load(&Shared));
  };
  ExecutorConfig Config;
  WorkerPool Pool(Spec, Config, /*NumSlots=*/2, /*AllowReuse=*/true);
  ASSERT_TRUE(Pool.valid());

  ChunkChannel Ch;
  ChildReport First;
  ASSERT_NO_FATAL_FAILURE(runOnSlotZero(Pool, Spec, Config, 0, Ch, First));
  Pool.pushCommit(/*Worker=*/1, /*Chunk=*/0, First);

  ChildReport Other;
  const int64_t Committed = 42;
  Other.Log.record(&Shared, &Committed, sizeof(Committed));
  Pool.pushCommit(/*Worker=*/2, /*Chunk=*/7, Other);
  Pool.engageCatchUp();

  ChildReport Second;
  ASSERT_NO_FATAL_FAILURE(runOnSlotZero(Pool, Spec, Config, 1, Ch, Second));
  EXPECT_TRUE(Ch.Reused) << "the resident child must run the chunk";
  EXPECT_EQ(Pool.childReuses(), 1u);
  int64_t Seen = 0;
  ASSERT_TRUE(Second.Log.lookup(&Out, &Seen, sizeof(Seen)));
  EXPECT_EQ(Seen, Committed)
      << "the redispatched chunk read its fork-time value, not committed "
         "state";
}

TEST(TransportTest, CaughtUpChildrenKeepSharedCountersExact) {
  // Each iteration increments one of a few shared counters, so chunks in
  // flight together conflict and catch-up engages early; a + reduction
  // rides along. A resident child that replayed less than its fresh
  // snapshot claims would read a stale counter that WAW validation cannot
  // see, and a counter would fall short of sequential execution.
  constexpr int64_t N = 96;
  constexpr int64_t M = 4;
  for (ConflictPolicy Conflict : {ConflictPolicy::WAW, ConflictPolicy::RAW})
    for (CommitOrderPolicy Order :
         {CommitOrderPolicy::InOrder, CommitOrderPolicy::OutOfOrder}) {
      SCOPED_TRACE(std::string(conflictPolicyName(Conflict)) +
                   commitOrderPolicyName(Order));
      std::vector<int64_t> Counters(M, 0);
      double Sum = 0.0;
      LoopSpec Spec;
      Spec.NumIterations = N;
      Spec.Reductions.push_back({"sum", &Sum, ScalarKind::F64});
      Spec.Body = [&Counters](TxnContext &Ctx, int64_t I) {
        int64_t *Cell = &Counters[static_cast<size_t>(I % M)];
        Ctx.store(Cell, Ctx.load(Cell) + 1);
        Ctx.redUpdateF(0, ReduceOp::Plus, static_cast<double>(I));
      };
      ExecutorConfig Config;
      Config.NumWorkers = 3;
      Config.Params.Conflict = Conflict;
      Config.Params.CommitOrder = Order;
      Config.Params.ChunkFactor = 1;
      Config.Params.Reductions.push_back({0, ReduceOp::Plus});
      Config.Transport = TransportKind::Ring;
      PipelineExecutor Exec(Config);
      const RunResult R = Exec.run(Spec);
      ASSERT_TRUE(R.succeeded()) << R.Detail;
      EXPECT_GT(R.Stats.NumRetries, 0u) << "catch-up never engaged";
      EXPECT_GT(R.Stats.ChildReuses, 0u) << "no resident child was reused";
      EXPECT_EQ(Counters, std::vector<int64_t>(M, N / M));
      EXPECT_EQ(Sum, static_cast<double>(N * (N - 1) / 2));
    }
}

TEST(TransportTest, StaleWorkCommandIsDroppedWhole) {
  // A command addressed to a dead predecessor (another attempt tag) must
  // be consumed with its whole catch-up, so the next command — the one
  // for this child — arrives intact.
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  const auto Send = [&Fds](uint8_t Tag, int64_t Chunk, uint64_t CatchUpBytes,
                           const std::vector<uint8_t> &CatchUp) {
    WireNextCmd Cmd{};
    Cmd.Chunk = Chunk;
    Cmd.First = Chunk;
    Cmd.Last = Chunk + 1;
    Cmd.CatchUpBytes = CatchUpBytes;
    Cmd.Tag = Tag;
    std::vector<uint8_t> Msg(sizeof(Cmd));
    std::memcpy(Msg.data(), &Cmd, sizeof(Cmd));
    Msg.insert(Msg.end(), CatchUp.begin(), CatchUp.end());
    ASSERT_EQ(::write(Fds[1], Msg.data(), Msg.size()),
              static_cast<ssize_t>(Msg.size()));
  };
  const std::vector<uint8_t> Stale(300, 0xaa);
  std::vector<uint8_t> Fresh(40);
  std::iota(Fresh.begin(), Fresh.end(), uint8_t{1});
  Send(5, 10, Stale.size(), Stale);
  Send(7, 11, Fresh.size(), Fresh);

  WireNextCmd Cmd;
  std::vector<uint8_t> CatchUp;
  ASSERT_EQ(readWorkCommand(Fds[0], 7, Cmd, CatchUp), WorkCmdStatus::Ok);
  EXPECT_EQ(Cmd.Chunk, 11);
  EXPECT_EQ(Cmd.Tag, 7);
  EXPECT_EQ(CatchUp, Fresh);

  // An oversized claim is refused before any payload is read or allocated.
  Send(7, 12, MaxCatchUpBytes + 1, {});
  EXPECT_EQ(readWorkCommand(Fds[0], 7, Cmd, CatchUp),
            WorkCmdStatus::Malformed);
  ::close(Fds[1]);
  EXPECT_EQ(readWorkCommand(Fds[0], 7, Cmd, CatchUp), WorkCmdStatus::Closed);
  ::close(Fds[0]);
}

TEST(TransportTest, CommitRecordsReplayInOrderAndRejectTruncation) {
  int64_t Cell = 0;
  double Sum = 1.0;
  LoopSpec Spec;
  Spec.Reductions.push_back({"sum", &Sum, ScalarKind::F64});
  ExecutorConfig Config;
  std::vector<uint8_t> Records;
  for (int64_t V : {5, 9}) {
    ChildReport Rep;
    Rep.Log.record(&Cell, &V, sizeof(V));
    Rep.Slots.resize(1);
    Rep.Slots[0].Active = true;
    Rep.Slots[0].Touched = true;
    Rep.Slots[0].Op = ReduceOp::Plus;
    Rep.Slots[0].Acc = RedValue::ofF64(static_cast<double>(V));
    appendCommitRecord(Records, /*Worker=*/1, Rep);
  }
  ASSERT_TRUE(replayCommitRecords(Spec, Config, Records.data(),
                                  Records.size()));
  EXPECT_EQ(Cell, 9) << "records replay in commit order";
  EXPECT_EQ(Sum, 15.0);

  // Cut into the second record's log, into its header, and into the
  // first record's header.
  for (size_t Cut : {size_t{1}, Records.size() / 2 - 3, Records.size() - 3})
    EXPECT_FALSE(replayCommitRecords(Spec, Config, Records.data(),
                                     Records.size() - Cut))
        << "a record cut " << Cut << " bytes short must be rejected";
  EXPECT_TRUE(replayCommitRecords(Spec, Config, nullptr, 0));
}

} // namespace
