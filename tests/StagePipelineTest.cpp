//===- tests/StagePipelineTest.cpp - PS-DSWP stage pipeline ---------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stage-pipelined schedule and the rule that picks it:
///
///  S1. The one registry workload that carries a stage split (SSCA2) runs
///      staged under SchedulePolicy::Auto and produces the exact
///      sequential output; the others run chunked and still validate.
///  S2. Auto picks staged exactly when the loop declares a split and has
///      at least two workers (one replica beside the sequential lane).
///  S3. Auto decides without executing an iteration: the parent runs the
///      sequential stage once per iteration and never the whole body.
///  S4. When a chunk trips the access-set cap, the pipelined engine
///      indicts the EARLIEST uncommitted chunk (the resume point the
///      degradation ladder needs), not the chunk that happened to
///      overflow, and the blown set sizes still reach the telemetry.
///  S5. Buffered-write contexts (the stage replicas' mode) give
///      read-own-writes without touching memory before commit.
///
//===----------------------------------------------------------------------===//

#include "runtime/PipelineExecutor.h"
#include "runtime/TxnContext.h"
#include "support/FaultInjection.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace alter;

//===----------------------------------------------------------------------===
// S1: registry-wide staged output equivalence
//===----------------------------------------------------------------------===

TEST(StageScheduleTest, ForcedStagedMatchesSequentialAcrossRegistry) {
  unsigned StagedRuns = 0;
  for (const std::string &Name : allWorkloadNames()) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    const std::optional<Annotation> A = W->paperAnnotation();
    if (!A)
      continue; // labyrinth: the paper could not parallelize it
    SCOPED_TRACE(Name);

    W->setUp(0);
    W->runSequential();
    const std::vector<double> Reference = W->outputSignature();

    W->setUp(0);
    const RunResult R = W->runScheduled(SchedulePolicy::Auto,
                                        W->resolveAnnotation(*A),
                                        /*NumWorkers=*/4);
    ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
    if (R.ScheduleUsed == ScheduleKind::Staged)
      ++StagedRuns;
    EXPECT_TRUE(W->validate(Reference));
  }
  EXPECT_EQ(StagedRuns, 1u) << "SSCA2 is the only loop with a stage split";
}

//===----------------------------------------------------------------------===
// S2/S3: the auto rule
//===----------------------------------------------------------------------===

namespace {

/// The sequential reference that also notes whether any invocation's loop
/// declares a stage split.
class SplitProbeRunner : public SequentialLoopRunner {
public:
  using SequentialLoopRunner::SequentialLoopRunner;

  bool runInner(const LoopSpec &Spec) override {
    Split = Split || Spec.Stage.valid();
    return SequentialLoopRunner::runInner(Spec);
  }

  bool Split = false;
};

} // namespace

TEST(StageScheduleTest, AutoStagesExactlyTheSplitLoopsAtTwoOrMoreWorkers) {
  for (const std::string &Name : allWorkloadNames()) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    const std::optional<Annotation> A = W->paperAnnotation();
    if (!A)
      continue; // labyrinth: the paper could not parallelize it
    W->setUp(0);
    SplitProbeRunner Probe(W->allocator());
    W->run(Probe);
    const std::vector<double> Reference = W->outputSignature();
    for (unsigned P : {1u, 3u, 4u}) {
      SCOPED_TRACE(Name + " P=" + std::to_string(P));
      W->setUp(0);
      const RunResult R = W->runScheduled(SchedulePolicy::Auto,
                                          W->resolveAnnotation(*A), P);
      ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
      EXPECT_EQ(R.ScheduleUsed, Probe.Split && P >= 2 ? ScheduleKind::Staged
                                                      : ScheduleKind::Chunked)
          << "auto chose " << scheduleKindName(R.ScheduleUsed);
      EXPECT_TRUE(W->validate(Reference));
    }
  }
}

// The table above derives each expectation from the loop; these pin the
// registry's headline rows to the schedule they must get.

namespace {

RunResult runAuto(const std::string &Name, unsigned NumWorkers,
                  bool &Valid) {
  std::unique_ptr<Workload> W = makeWorkload(Name);
  W->setUp(0);
  W->runSequential();
  const std::vector<double> Reference = W->outputSignature();
  W->setUp(0);
  const RunResult R = W->runScheduled(
      SchedulePolicy::Auto, W->resolveAnnotation(*W->paperAnnotation()),
      NumWorkers);
  Valid = W->validate(Reference);
  return R;
}

} // namespace

TEST(StageScheduleTest, PlannerPicksStagedForSsca2) {
  // SSCA2's scatter declares the fill-cursor chain as its sequential stage.
  bool Valid = false;
  const RunResult R = runAuto("ssca2", /*NumWorkers=*/4, Valid);
  ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
  EXPECT_EQ(R.ScheduleUsed, ScheduleKind::Staged)
      << "auto chose " << scheduleKindName(R.ScheduleUsed);
  EXPECT_TRUE(Valid);
}

TEST(StageScheduleTest, PlannerKeepsGenomeChunked) {
  // Genome declares no stage split, so auto keeps it chunked.
  bool Valid = false;
  const RunResult R = runAuto("genome", /*NumWorkers=*/4, Valid);
  ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
  EXPECT_EQ(R.ScheduleUsed, ScheduleKind::Chunked)
      << "auto chose " << scheduleKindName(R.ScheduleUsed);
  EXPECT_TRUE(Valid);
}

TEST(StageScheduleTest, SingleWorkerFallsBackToChunked) {
  bool Valid = false;
  const RunResult R = runAuto("ssca2", /*NumWorkers=*/1, Valid);
  ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
  EXPECT_EQ(R.ScheduleUsed, ScheduleKind::Chunked)
      << "one worker cannot host a replica beside the sequential lane";
  EXPECT_TRUE(Valid);
}

TEST(StageScheduleTest, AutoRunsNoIterationOutsideTheEngine) {
  // A scatter like SSCA2's: the sequential stage bumps a shared cursor and
  // forwards the slot, the replicas fill it. Counters live in the parent;
  // replicas bump their own copies.
  constexpr int64_t N = 1024;
  int64_t Cursor = 0;
  std::vector<int64_t> Out(N, -1);
  int64_t BodyCalls = 0;
  int64_t FirstCalls = 0;
  LoopSpec Spec;
  Spec.Name = "split.scatter";
  Spec.NumIterations = N;
  Spec.Body = [&](TxnContext &Ctx, int64_t I) {
    ++BodyCalls;
    const int64_t Slot = Ctx.load(&Cursor);
    Ctx.store(&Cursor, Slot + 1);
    Ctx.store(&Out[static_cast<size_t>(Slot)], 3 * I);
  };
  Spec.Stage.First = [&](TxnContext &Ctx, int64_t) -> uint64_t {
    ++FirstCalls;
    const int64_t Slot = Ctx.load(&Cursor);
    Ctx.store(&Cursor, Slot + 1);
    return static_cast<uint64_t>(Slot);
  };
  Spec.Stage.Second = [&](TxnContext &Ctx, int64_t I, uint64_t Slot) {
    Ctx.store(&Out[Slot], 3 * I);
  };
  FaultPlan::global().clear();
  ExecutorConfig Config;
  Config.NumWorkers = 3;
  Config.Params.ChunkFactor = 1; // staged chunks of stagedChunkFactor(1)
  RecoveringLoopRunner Runner(ParallelEngine::Pipeline, Config);
  ASSERT_TRUE(Runner.runInner(Spec));
  Runner.release();
  const RunResult &R = Runner.result();
  ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
  EXPECT_EQ(R.ScheduleUsed, ScheduleKind::Staged);
  EXPECT_FALSE(R.Stats.Recovered);
  EXPECT_EQ(BodyCalls, 0) << "no whole-body iteration runs in the parent";
  EXPECT_EQ(FirstCalls, N) << "the sequential stage runs once per iteration";
  EXPECT_EQ(Cursor, N);
  for (int64_t I = 0; I != N; ++I)
    ASSERT_EQ(Out[static_cast<size_t>(I)], 3 * I) << "slot " << I;
}

TEST(StageScheduleTest, EnvPlanCompletesWithValidOutput) {
  // check.sh --stage drives this test with ALTER_FAULTS plans (stage-worker
  // kill, queue-record qflip): whatever the environment armed, SSCA2's
  // staged run must end in Success with the sequential output — clean when
  // no plan is set, degraded through the ladder when one is. Deliberately
  // does NOT touch FaultPlan::global(), so the env-parsed plan survives.
  std::unique_ptr<Workload> W = makeWorkload("ssca2");
  W->setUp(0);
  W->runSequential();
  const std::vector<double> Reference = W->outputSignature();
  W->setUp(0);
  const RunResult R = W->runScheduled(
      SchedulePolicy::Auto, W->resolveAnnotation(*W->paperAnnotation()),
      /*NumWorkers=*/4);
  ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
  EXPECT_EQ(R.ScheduleUsed, ScheduleKind::Staged);
  EXPECT_TRUE(W->validate(Reference));
}

//===----------------------------------------------------------------------===
// S4: access-set cap attribution in the pipelined engine
//===----------------------------------------------------------------------===

TEST(PipelineLimitAttributionTest, CapIndictsEarliestUncommittedChunk) {
  // Chunk 2 stalls (still in flight); chunk 5's read set then trips the
  // cap. The AggloClust failure mode: the overflowing chunk is usually a
  // victim of head-of-line blocking, so the engine must point the
  // degradation ladder at the oldest uncommitted chunk — re-running the
  // tail from chunk 5 would silently drop chunk 2's iteration.
  std::vector<double> Data(4096);
  std::vector<double> Cells(8, 0.0);
  double Sink = 0;
  LoopSpec Spec;
  Spec.NumIterations = 8;
  Spec.Body = [&](TxnContext &Ctx, int64_t I) {
    if (I == 5) {
      double Acc = 0;
      for (double &D : Data)
        Acc += Ctx.load(&D); // tracks 4096 words: blows the 48 KiB cap
      Ctx.store(&Sink, Acc);
      return;
    }
    Ctx.store(&Cells[static_cast<size_t>(I)],
              Ctx.load(&Cells[static_cast<size_t>(I)]) + 1.0);
  };
  FaultPlan::global().clear();
  FaultPlan::global().arm(FaultKind::Stall, /*Chunk=*/2, /*Sticky=*/false);
  FaultPlan::global().setStallNs(400'000'000); // chunk 2 outlives the run
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.Conflict = ConflictPolicy::RAW;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Params.ChunkFactor = 1;
  // The footprint counts set CAPACITY (table + keys), so the floor must
  // clear the small chunks' preallocated buckets and still be far under
  // chunk 5's ~4096 tracked words.
  Config.Limits.MaxAccessSetBytes = 48 * 1024;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  FaultPlan::global().clear();
  ASSERT_EQ(R.Status, RunStatus::Crash) << R.Detail;
  EXPECT_EQ(R.FailedChunk, 2) << R.Detail;
  // The blown sets must reach the telemetry: the largest read set on
  // record is the capped chunk's, far beyond the one-word chunks.
  EXPECT_GE(R.Stats.ReadSetWords.max(), 512.0);
}

//===----------------------------------------------------------------------===
// S5: buffered-write replica contexts
//===----------------------------------------------------------------------===

TEST(BufferedWriteTest, ReadsOwnWritesWithoutTouchingMemory) {
  RuntimeParams Params;
  Params.Conflict = ConflictPolicy::FULL;
  LoopSpec Spec;
  Spec.NumIterations = 1;
  TxnContext Ctx(ContextMode::Transactional, &Params, &Spec,
                 /*Allocator=*/nullptr, /*Worker=*/0);
  Ctx.enableBufferedWrites();

  double X = 1.0;
  std::vector<double> Arr = {10.0, 11.0, 12.0, 13.0};

  Ctx.beginTxn();
  Ctx.store(&X, 5.0);
  EXPECT_EQ(X, 1.0) << "buffered stores must not touch memory pre-commit";
  EXPECT_EQ(Ctx.load(&X), 5.0) << "loads must see the transaction's writes";
  Ctx.store(&Arr[2], 99.0);
  std::vector<double> Out(4, 0.0);
  Ctx.readRange(Arr.data(), Arr.size(), Out.data());
  EXPECT_EQ(Out[1], 11.0);
  EXPECT_EQ(Out[2], 99.0) << "range reads must overlay buffered writes";
  Ctx.commitTxn();
  EXPECT_EQ(X, 5.0);
  EXPECT_EQ(Arr[2], 99.0);
}

TEST(BufferedWriteTest, AbortDiscardsBufferedWrites) {
  RuntimeParams Params;
  Params.Conflict = ConflictPolicy::FULL;
  LoopSpec Spec;
  Spec.NumIterations = 1;
  TxnContext Ctx(ContextMode::Transactional, &Params, &Spec,
                 /*Allocator=*/nullptr, /*Worker=*/0);
  Ctx.enableBufferedWrites();
  double X = 1.0;
  Ctx.beginTxn();
  Ctx.store(&X, 7.0);
  Ctx.abortTxn();
  EXPECT_EQ(X, 1.0) << "an aborted buffered transaction leaves no trace";
}
