//===- tests/RobustnessTest.cpp - Failure injection and edge cases --------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Edge cases and failure injection: registry coherence, programmatic
/// aborts surfacing as sandbox crashes (allocator exhaustion, unknown
/// workloads), degenerate loop shapes, the documented semantics that
/// StaleReads output is a function of (input, workers, chunk factor) —
/// deterministic per configuration, legitimately different across
/// configurations (§4.3) — and the misspeculation-recovery guarantees:
/// every injected fault (fork failure, child crash/kill, truncated or
/// bit-flipped commit message, stall past the deadline) is contained to
/// its chunk, transient faults self-heal inside the engine, persistent
/// faults complete through the sequential fallback, and the final memory
/// image always matches sequential execution. No injected fault may ever
/// abort the parent process — these tests run the engines in-process.
///
//===----------------------------------------------------------------------===//

#include "memory/AlterAllocator.h"
#include "runtime/CommitJournal.h"
#include "runtime/ForkJoinExecutor.h"
#include "runtime/LockstepExecutor.h"
#include "runtime/PipelineExecutor.h"
#include "runtime/ShutdownSupervisor.h"
#include "runtime/TxnWire.h"
#include "support/FaultInjection.h"
#include "support/Subprocess.h"
#include "support/Varint.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <tuple>
#include <unistd.h>

using namespace alter;

//===----------------------------------------------------------------------===
// Registry coherence
//===----------------------------------------------------------------------===

TEST(RegistryTest, TwelveWorkloadsMatchingTable3) {
  EXPECT_EQ(allWorkloadNames().size(), 12u);
  EXPECT_EQ(paperTable3().size(), 12u);
  for (size_t I = 0; I != allWorkloadNames().size(); ++I)
    EXPECT_EQ(allWorkloadNames()[I], paperTable3()[I].Name)
        << "registry order must match the paper table";
  for (const std::string &Name : allWorkloadNames()) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    ASSERT_NE(W, nullptr);
    EXPECT_EQ(W->name(), Name);
  }
}

TEST(RegistryTest, UnknownWorkloadAbortsInSandbox) {
  // fatalError aborts the process; the sandbox surfaces it as a crash —
  // the same mechanism the inference engine relies on for candidate
  // failures.
  const SubprocessResult R = runInSandbox(
      [](int) {
        (void)makeWorkload("no-such-benchmark");
        _exit(0); // unreachable
      },
      /*TimeoutSec=*/30);
  EXPECT_FALSE(R.Exited);
  EXPECT_NE(R.Signal, 0);
}

//===----------------------------------------------------------------------===
// Failure injection
//===----------------------------------------------------------------------===

TEST(FailureInjectionTest, ArenaExhaustionAborts) {
  const SubprocessResult R = runInSandbox(
      [](int) {
        AlterAllocator Alloc(1, /*BytesPerWorker=*/1 << 12);
        for (int I = 0; I != 1000; ++I)
          (void)Alloc.allocate(0, 64); // exhausts the 4 KiB arena
        _exit(0);
      },
      /*TimeoutSec=*/30);
  EXPECT_FALSE(R.Exited) << "exhaustion must abort, not corrupt";
}

TEST(FailureInjectionTest, BodyCrashSurfacesThroughTheSandbox) {
  // A candidate whose body dereferences garbage must classify as a crash,
  // not poison the parent (the §5 crash outcome).
  const SubprocessResult R = runInSandbox(
      [](int) {
        LoopSpec Spec;
        Spec.NumIterations = 4;
        Spec.Body = [](TxnContext &, int64_t I) {
          if (I == 3) {
            // Through a volatile address, so the compiler cannot see (and
            // warn about) the constant bad pointer.
            volatile uintptr_t BadAddr = 0x40;
            *reinterpret_cast<volatile int *>(BadAddr) = 1;
          }
        };
        ExecutorConfig Config;
        Config.NumWorkers = 2;
        Config.Params.ChunkFactor = 1;
        LockstepExecutor Exec(Config);
        (void)Exec.run(Spec);
        _exit(0);
      },
      /*TimeoutSec=*/30);
  EXPECT_FALSE(R.Exited);
  EXPECT_NE(R.Signal, 0);
}

//===----------------------------------------------------------------------===
// Degenerate loop shapes
//===----------------------------------------------------------------------===

TEST(DegenerateLoopTest, EmptyLoopSucceedsEverywhere) {
  for (unsigned Workers : {1u, 4u}) {
    LoopSpec Spec;
    Spec.NumIterations = 0;
    Spec.Body = [](TxnContext &, int64_t) { FAIL() << "must not run"; };
    ExecutorConfig Config;
    Config.NumWorkers = Workers;
    LockstepExecutor Exec(Config);
    const RunResult R = Exec.run(Spec);
    EXPECT_TRUE(R.succeeded());
    EXPECT_EQ(R.Stats.NumTransactions, 0u);
    EXPECT_EQ(R.Stats.NumRounds, 0u);
  }
}

TEST(DegenerateLoopTest, SingleIterationLoop) {
  double X = 1.0;
  LoopSpec Spec;
  Spec.NumIterations = 1;
  Spec.Body = [&X](TxnContext &Ctx, int64_t) { Ctx.store(&X, 2.0); };
  ExecutorConfig Config;
  Config.NumWorkers = 8; // more workers than chunks
  Config.Params.ChunkFactor = 64;
  LockstepExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  EXPECT_TRUE(R.succeeded());
  EXPECT_EQ(R.Stats.NumTransactions, 1u);
  EXPECT_EQ(X, 2.0);
}

TEST(DegenerateLoopTest, ChunkLargerThanLoop) {
  std::vector<int64_t> Data(10, 0);
  LoopSpec Spec;
  Spec.NumIterations = 10;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.ChunkFactor = 1000;
  LockstepExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  EXPECT_TRUE(R.succeeded());
  EXPECT_EQ(R.Stats.NumTransactions, 1u) << "one chunk covers everything";
  for (int64_t I = 0; I != 10; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I);
}

//===----------------------------------------------------------------------===
// Cross-configuration semantics (§4.3)
//===----------------------------------------------------------------------===

//===----------------------------------------------------------------------===
// Wire-protocol hardening
//===----------------------------------------------------------------------===

TEST(WireProtocolTest, Crc32MatchesIeeeReferenceVector) {
  const char *Check = "123456789";
  EXPECT_EQ(wireCrc32(reinterpret_cast<const uint8_t *>(Check), 9),
            0xCBF43926u);
  EXPECT_EQ(wireCrc32(nullptr, 0), 0u);
}

TEST(WireProtocolTest, AccessSetDecodeRejectsEveryTruncation) {
  std::vector<double> Pool(256);
  AccessSet Set;
  Set.insertRange(Pool.data(), Pool.size() * sizeof(double));
  Set.insert(&Pool[0]); // plus a second run far from the first
  std::vector<uint8_t> Wire;
  serializeAccessSet(Wire, Set);
  {
    AccessSet Back;
    size_t Consumed = 0;
    ASSERT_TRUE(deserializeAccessSet(Wire.data(), Wire.size(), Back,
                                     Consumed));
    EXPECT_EQ(Consumed, Wire.size());
  }
  for (size_t Len = 0; Len != Wire.size(); ++Len) {
    AccessSet Back;
    size_t Consumed = 0;
    EXPECT_FALSE(deserializeAccessSet(Wire.data(), Len, Back, Consumed))
        << "prefix of " << Len << " bytes must be rejected";
  }
}

TEST(WireProtocolTest, AccessSetDecodeBoundsAllocation) {
  // A tiny message claiming an enormous word count must be rejected before
  // anything is allocated or inserted, not trusted and expanded.
  std::vector<uint8_t> Evil;
  appendVarint(Evil, ~uint64_t(0)); // count
  appendVarint(Evil, 1);            // one run
  appendVarint(Evil, 0);            // gap
  appendVarint(Evil, ~uint64_t(0)); // length - 1
  AccessSet Back;
  size_t Consumed = 0;
  EXPECT_FALSE(deserializeAccessSet(Evil.data(), Evil.size(), Back,
                                    Consumed));
}

TEST(WireProtocolTest, WriteLogCheckedDecodeRejectsHostileHeaders) {
  WriteLog Out;
  // Absurd entry count in a two-byte message.
  std::vector<uint8_t> Evil;
  appendVarint(Evil, ~uint64_t(0));
  EXPECT_FALSE(
      WriteLog::deserializeCompactChecked(Evil.data(), Evil.size(), Out));
  // Entry whose payload size exceeds the physical message.
  Evil.clear();
  appendVarint(Evil, 1); // one entry
  appendVarint(Evil, 0); // address delta
  appendVarint(Evil, 1u << 20); // 1 MiB payload in a 4-byte message
  EXPECT_FALSE(
      WriteLog::deserializeCompactChecked(Evil.data(), Evil.size(), Out));
  // Empty log still round-trips.
  WriteLog Empty;
  std::vector<uint8_t> Wire;
  Empty.serializeCompact(Wire);
  EXPECT_TRUE(
      WriteLog::deserializeCompactChecked(Wire.data(), Wire.size(), Out));
  EXPECT_TRUE(Out.empty());
}

//===----------------------------------------------------------------------===
// Fault-injection plan
//===----------------------------------------------------------------------===

TEST(FaultPlanTest, ParseGrammarAndConsumption) {
  FaultPlan &Plan = FaultPlan::global();
  Plan.clear();
  std::string Error;
  ASSERT_TRUE(Plan.parse("kill@3,truncate@1!;seed=7,stallms=50", &Error))
      << Error;
  EXPECT_EQ(Plan.pendingCount(), 2u);
  EXPECT_EQ(Plan.seed(), 7u);
  EXPECT_EQ(Plan.stallNs(), 50u * 1000000u);

  const ArmedFault OneShot = Plan.take(3);
  EXPECT_TRUE(OneShot.Armed);
  EXPECT_EQ(OneShot.Kind, FaultKind::ChildKill);
  EXPECT_EQ(OneShot.Seed, 7u);
  EXPECT_FALSE(Plan.take(3).Armed) << "one-shot faults are consumed";

  EXPECT_TRUE(Plan.take(1).Armed);
  EXPECT_TRUE(Plan.take(1).Armed) << "sticky faults stay armed";
  EXPECT_FALSE(Plan.take(0).Armed);

  EXPECT_FALSE(Plan.parse("explode@1", &Error));
  EXPECT_FALSE(Plan.parse("kill3", &Error));
  EXPECT_FALSE(Plan.parse("seed=x", &Error));
  Plan.clear();
  EXPECT_FALSE(Plan.enabled());
}

TEST(FaultPlanTest, IterationTargetedPointsMatchByRange) {
  FaultPlan &Plan = FaultPlan::global();
  Plan.clear();
  std::string Error;
  ASSERT_TRUE(Plan.parse("kill@i6!,crash@i2;seed=5", &Error)) << Error;
  EXPECT_EQ(Plan.pendingCount(), 2u);

  // The chunk-only overload never consumes iteration points.
  EXPECT_FALSE(Plan.take(1).Armed);
  EXPECT_EQ(Plan.pendingCount(), 2u);

  // crash@i2 is one-shot: it strikes the chunk covering iteration 2 once.
  const ArmedFault OneShot = Plan.take(/*Chunk=*/0, /*FirstIter=*/0,
                                       /*LastIter=*/4);
  EXPECT_TRUE(OneShot.Armed);
  EXPECT_EQ(OneShot.Kind, FaultKind::ChildCrash);
  EXPECT_EQ(OneShot.Chunk, 0);
  EXPECT_FALSE(Plan.take(0, 0, 4).Armed) << "one-shot consumed; iteration 6 "
                                            "is outside [0, 4)";

  // kill@i6! is sticky: every range covering iteration 6 is struck.
  EXPECT_TRUE(Plan.take(1, 4, 8).Armed);
  EXPECT_TRUE(Plan.take(1, 6, 7).Armed);
  EXPECT_FALSE(Plan.take(1, 4, 6).Armed) << "[4, 6) does not cover 6";
  EXPECT_FALSE(Plan.take(1, 7, 8).Armed);

  EXPECT_FALSE(Plan.parse("kill@i", &Error));
  EXPECT_FALSE(Plan.parse("kill@ix", &Error));
  Plan.clear();
}

TEST(FaultPlanTest, PoisonPointParsesAndConsumes) {
  FaultPlan &Plan = FaultPlan::global();
  Plan.clear();
  std::string Error;
  ASSERT_TRUE(Plan.parse("poison@2", &Error)) << Error;
  EXPECT_EQ(Plan.pendingCount(), 1u);
  const ArmedFault F = Plan.take(2);
  EXPECT_TRUE(F.Armed);
  EXPECT_EQ(F.Kind, FaultKind::TemplatePoison);
  EXPECT_STREQ(faultKindName(F.Kind), "poison");
  EXPECT_FALSE(Plan.take(2).Armed) << "one-shot poison is consumed";
  Plan.clear();
}

TEST(FaultPlanTest, MalformedPlansAreStructuredErrors) {
  FaultPlan &Plan = FaultPlan::global();
  Plan.clear();
  std::string Error;
  // Empty specs and stray separators arm nothing, but are not errors.
  EXPECT_TRUE(Plan.parse("", &Error));
  EXPECT_TRUE(Plan.parse(",;,", &Error));
  EXPECT_EQ(Plan.pendingCount(), 0u);
  // An unknown kind names the offending token, not just "parse error".
  EXPECT_FALSE(Plan.parse("explode@1", &Error));
  EXPECT_NE(Error.find("explode"), std::string::npos) << Error;
  // A chunk index that overflows uint64 is rejected, never wrapped to a
  // bogus (possibly matching) target.
  EXPECT_FALSE(Plan.parse("kill@99999999999999999999999", &Error));
  EXPECT_NE(Error.find("chunk index"), std::string::npos) << Error;
  EXPECT_FALSE(Plan.parse("crash@i99999999999999999999999", &Error));
  EXPECT_NE(Error.find("iteration"), std::string::npos) << Error;
  // A bare sticky marker leaves no digits behind the '@'.
  EXPECT_FALSE(Plan.parse("kill@!", &Error));
  EXPECT_FALSE(Plan.parse("kill@i!", &Error));
  // A failed parse must leave the plan exactly as it was.
  ASSERT_TRUE(Plan.parse("mmapfail@0,pipeexhaust@1!;sigstorm@2", &Error))
      << Error;
  EXPECT_EQ(Plan.pendingCount(), 3u);
  EXPECT_FALSE(Plan.parse("kill@", &Error));
  EXPECT_EQ(Plan.pendingCount(), 3u)
      << "a rejected spec must not alter the armed plan";
  Plan.clear();
  // In-process parse failures never latch the ALTER_FAULTS load error.
  EXPECT_TRUE(Plan.loadError().empty());
}

TEST(FaultPlanTest, SetupFaultsAreInvisibleToForkTimeTake) {
  // MmapFail/PipeExhaust target worker-slot indices, not chunks: the
  // fork-time consumption points must skip them entirely (a slot index
  // numerically equal to a chunk index is a coincidence, not a match), and
  // takeSetup must match only its exact kind and slot.
  FaultPlan &Plan = FaultPlan::global();
  Plan.clear();
  Plan.arm(FaultKind::MmapFail, /*Chunk=*/1);
  Plan.arm(FaultKind::PipeExhaust, /*Chunk=*/1);
  EXPECT_FALSE(Plan.take(1).Armed);
  EXPECT_FALSE(Plan.take(1, 0, 100).Armed);
  EXPECT_EQ(Plan.pendingCount(), 2u)
      << "fork-time take must not consume setup faults";
  EXPECT_FALSE(Plan.takeSetup(FaultKind::MmapFail, 0).Armed) << "wrong slot";
  EXPECT_FALSE(Plan.takeSetup(FaultKind::ChildKill, 1).Armed)
      << "wrong kind";
  const ArmedFault Mmap = Plan.takeSetup(FaultKind::MmapFail, 1);
  EXPECT_TRUE(Mmap.Armed);
  EXPECT_EQ(Mmap.Kind, FaultKind::MmapFail);
  EXPECT_FALSE(Plan.takeSetup(FaultKind::MmapFail, 1).Armed)
      << "one-shot setup faults are consumed";
  EXPECT_TRUE(Plan.takeSetup(FaultKind::PipeExhaust, 1).Armed);
  EXPECT_EQ(Plan.pendingCount(), 0u);
  Plan.clear();
}

TEST(FaultPlanTest, WireCorruptionIsDeterministic) {
  std::vector<uint8_t> A(333, 0xaa), B(333, 0xaa);
  faultBitFlipWire(A, /*Seed=*/9, /*Chunk=*/4);
  faultBitFlipWire(B, /*Seed=*/9, /*Chunk=*/4);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, std::vector<uint8_t>(333, 0xaa)) << "exactly one bit flips";

  std::vector<uint8_t> T(333, 0xaa);
  faultTruncateWire(T, /*Seed=*/9, /*Chunk=*/4);
  EXPECT_LT(T.size(), 333u);
  EXPECT_GE(T.size(), 333u / 4);
}

//===----------------------------------------------------------------------===
// Misspeculation recovery: the fault matrix
//===----------------------------------------------------------------------===

namespace {

const char *engineName(ParallelEngine Engine) {
  switch (Engine) {
  case ParallelEngine::ForkJoin:
    return "forkjoin";
  case ParallelEngine::Pipeline:
    return "pipeline";
  case ParallelEngine::Threaded:
    return "threaded";
  }
  return "unknown";
}

/// Runs a disjoint-writes loop (6 chunks of 4 iterations, 2 workers) under
/// the recovery driver with whatever the global FaultPlan has armed, and
/// asserts the final memory image equals sequential execution regardless
/// of which faults struck. \p Tweak may adjust the config (ladder budgets,
/// trace level) before the runner is built.
RunResult runDisjointLoopRecovering(
    ParallelEngine Engine, CommitOrderPolicy Order, uint64_t SeqBaselineNs = 0,
    const std::function<void(ExecutorConfig &)> &Tweak = {}) {
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
  Config.Params.CommitOrder = Order;
  Config.SeqBaselineNs = SeqBaselineNs;
  if (Tweak)
    Tweak(Config);
  RecoveringLoopRunner Runner(Engine, Config);
  EXPECT_TRUE(Runner.runInner(Spec));
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 3 + 1)
        << "memory image must equal sequential execution (iteration " << I
        << ")";
  return Runner.result();
}

} // namespace

TEST(FaultMatrixTest, TransientFaultsSelfHealInsideTheEngine) {
  // A one-shot fault strikes the chunk's first attempt only; the engine's
  // own requeue-and-retry absorbs it without the sequential fallback.
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    for (FaultKind Kind : {FaultKind::ForkFail, FaultKind::ChildCrash,
                           FaultKind::ChildKill, FaultKind::PipeTruncate,
                           FaultKind::BitFlip}) {
      SCOPED_TRACE(std::string(engineName(Engine)) + "/" +
                   faultKindName(Kind));
      FaultPlan::global().clear();
      FaultPlan::global().arm(Kind, /*Chunk=*/1, /*Sticky=*/false);
      const RunResult R =
          runDisjointLoopRecovering(Engine, CommitOrderPolicy::InOrder);
      EXPECT_EQ(R.Status, RunStatus::Success);
      EXPECT_FALSE(R.Stats.Recovered)
          << "a transient fault must not reach the fallback";
      EXPECT_EQ(FaultPlan::global().pendingCount(), 0u)
          << "the fault must actually have struck";
      switch (Kind) {
      case FaultKind::ForkFail:
        EXPECT_EQ(R.Stats.NumForkFailures, 1u);
        break;
      case FaultKind::ChildCrash:
      case FaultKind::ChildKill:
        EXPECT_EQ(R.Stats.NumChildCrashes, 1u);
        break;
      case FaultKind::PipeTruncate:
      case FaultKind::BitFlip:
        EXPECT_EQ(R.Stats.NumWireRejects, 1u);
        break;
      default:
        break;
      }
    }
  }
  FaultPlan::global().clear();
}

TEST(FaultMatrixTest, PersistentFaultsQuarantineOnlyThePoisonedChunk) {
  // A sticky fault strikes every attempt: the engine exhausts its
  // per-chunk retry budget and reports a contained Crash. The degradation
  // ladder then walks chunk 1 down through salvage and bisection to
  // quarantine — exactly the poisoned chunk's four iterations run
  // sequentially, and the healthy tail stays parallel (zero
  // RecoveredIterations).
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    for (CommitOrderPolicy Order :
         {CommitOrderPolicy::InOrder, CommitOrderPolicy::OutOfOrder}) {
      for (FaultKind Kind : {FaultKind::ForkFail, FaultKind::ChildCrash,
                             FaultKind::ChildKill, FaultKind::PipeTruncate,
                             FaultKind::BitFlip}) {
        SCOPED_TRACE(std::string(engineName(Engine)) + "/" +
                     (Order == CommitOrderPolicy::InOrder ? "inorder"
                                                          : "outoforder") +
                     "/" + faultKindName(Kind));
        FaultPlan::global().clear();
        FaultPlan::global().arm(Kind, /*Chunk=*/1, /*Sticky=*/true);
        const RunResult R = runDisjointLoopRecovering(Engine, Order);
        EXPECT_EQ(R.Status, RunStatus::Success)
            << "recovery must downgrade the crash to a completed run";
        EXPECT_TRUE(R.Stats.Recovered);
        EXPECT_EQ(R.Stats.QuarantinedIterations, 4u)
            << "exactly the poisoned chunk is quarantined";
        EXPECT_EQ(R.Stats.RecoveredIterations, 0u)
            << "the healthy tail must stay parallel";
        EXPECT_EQ(R.Stats.SalvagedChunks, 0u)
            << "a sticky chunk fault poisons every fragment";
        EXPECT_LE(R.Stats.RecoveredIterations + R.Stats.QuarantinedIterations,
                  static_cast<uint64_t>(R.ChunkFactorUsed));
      }
    }
  }
  FaultPlan::global().clear();
}

TEST(FaultMatrixTest, StalledChildTimesOutAndRecovers) {
  // A child sleeping past the deadline: the engine SIGKILLs it, reports
  // Timeout, and the recovery driver completes the loop.
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    SCOPED_TRACE(engineName(Engine));
    FaultPlan::global().clear();
    FaultPlan::global().arm(FaultKind::Stall, /*Chunk=*/1, /*Sticky=*/true);
    FaultPlan::global().setStallNs(600'000'000); // 600ms, past any deadline
    const RunResult R = runDisjointLoopRecovering(
        Engine, CommitOrderPolicy::InOrder, /*SeqBaselineNs=*/1'000'000);
    EXPECT_EQ(R.Status, RunStatus::Success);
    EXPECT_TRUE(R.Stats.Recovered);
    EXPECT_GT(R.Stats.RecoveredIterations, 0u);
  }
  FaultPlan::global().clear();
}

TEST(FaultMatrixTest, AllWorkloadsRecoverToValidOutput) {
  // The acceptance bar: with persistent kill/truncate/bit-flip faults
  // armed, every parallelizable workload in the registry still completes
  // under the recovery driver and its output validates against the
  // sequential reference.
  for (const std::string &Name : allWorkloadNames()) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    const std::optional<Annotation> A = W->paperAnnotation();
    if (!A)
      continue; // labyrinth: the paper could not parallelize it
    SCOPED_TRACE(Name);

    W->setUp(0);
    W->runSequential();
    const std::vector<double> Reference = W->outputSignature();

    FaultPlan::global().clear();
    FaultPlan::global().arm(FaultKind::ChildKill, /*Chunk=*/0,
                            /*Sticky=*/true);
    FaultPlan::global().arm(FaultKind::PipeTruncate, /*Chunk=*/1,
                            /*Sticky=*/true);
    FaultPlan::global().arm(FaultKind::BitFlip, /*Chunk=*/2,
                            /*Sticky=*/true);

    W->setUp(0);
    const RunResult R = W->runRecovering(
        ParallelEngine::ForkJoin, W->resolveAnnotation(*A), /*NumWorkers=*/2);
    EXPECT_EQ(R.Status, RunStatus::Success);
    EXPECT_TRUE(R.Stats.Recovered);
    EXPECT_TRUE(W->validate(Reference))
        << "recovered output must validate against sequential";
    FaultPlan::global().clear();
  }
}

TEST(FaultMatrixTest, StagedWorkerKillDegradesThroughLadder) {
  // A stage-pipeline replica SIGKILLed on every attempt of chunk 1: the
  // staged engine's restart-the-world retries exhaust, the run reports a
  // contained Crash, and the degradation ladder (chunked salvage →
  // bisection → quarantine) still completes to the sequential output.
  std::unique_ptr<Workload> W = makeWorkload("ssca2");
  W->setUp(0);
  W->runSequential();
  const std::vector<double> Reference = W->outputSignature();

  FaultPlan::global().clear();
  FaultPlan::global().arm(FaultKind::ChildKill, /*Chunk=*/1, /*Sticky=*/true);
  W->setUp(0);
  const RunResult R = W->runScheduled(
      SchedulePolicy::Staged, W->resolveAnnotation(*W->paperAnnotation()),
      /*NumWorkers=*/4);
  FaultPlan::global().clear();
  EXPECT_EQ(R.Status, RunStatus::Success) << R.Detail;
  EXPECT_TRUE(W->validate(Reference))
      << "degraded staged run must still match sequential";
  EXPECT_TRUE(R.Stats.Recovered || R.Stats.QuarantinedIterations > 0 ||
              R.Stats.SalvagedChunks > 0)
      << "the sticky kill must have pushed the run down the ladder";
}

TEST(FaultMatrixTest, StagedQueueCorruptionDegradesThroughLadder) {
  // The inter-stage token queue record of chunk 1 is bit-flipped on every
  // staged attempt: the consuming replica rejects the frame (bad STGQ
  // magic or CRC) and dies with the queue-reject exit, the staged engine
  // gives up after its retry budget, and the ladder's chunked sub-runs —
  // which have no inter-stage queue to corrupt — salvage the loop to a
  // valid output with no sequential tail.
  std::unique_ptr<Workload> W = makeWorkload("ssca2");
  W->setUp(0);
  W->runSequential();
  const std::vector<double> Reference = W->outputSignature();

  FaultPlan::global().clear();
  FaultPlan::global().arm(FaultKind::QueueFlip, /*Chunk=*/1, /*Sticky=*/true);
  W->setUp(0);
  const RunResult R = W->runScheduled(
      SchedulePolicy::Staged, W->resolveAnnotation(*W->paperAnnotation()),
      /*NumWorkers=*/4);
  FaultPlan::global().clear();
  EXPECT_EQ(R.Status, RunStatus::Success) << R.Detail;
  EXPECT_TRUE(W->validate(Reference));
  EXPECT_TRUE(R.Stats.Recovered || R.Stats.QuarantinedIterations > 0 ||
              R.Stats.SalvagedChunks > 0)
      << "the sticky queue corruption must have left the staged schedule";
}

//===----------------------------------------------------------------------===
// Steady-state transport: the fault matrix on rings, and pool faults
//===----------------------------------------------------------------------===

TEST(PoolFaultMatrixTest, WireFaultsHealIdenticallyOnBothTransports) {
  // Fault-matrix parity: the same wire corruptions that the pipe path
  // contains must be contained on the ring path — a truncated or
  // bit-flipped ring record is rejected by the checked decode, a killed
  // pooled worker surfaces through the template's abnormal doorbell.
  for (TransportKind Transport : {TransportKind::Ring, TransportKind::Pipe}) {
    for (ParallelEngine Engine :
         {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
      for (FaultKind Kind : {FaultKind::ChildCrash, FaultKind::ChildKill,
                             FaultKind::PipeTruncate, FaultKind::BitFlip}) {
        SCOPED_TRACE(std::string(transportKindName(Transport)) + "/" +
                     engineName(Engine) + "/" + faultKindName(Kind));
        FaultPlan::global().clear();
        FaultPlan::global().arm(Kind, /*Chunk=*/1, /*Sticky=*/false);
        const RunResult R = runDisjointLoopRecovering(
            Engine, CommitOrderPolicy::InOrder, /*SeqBaselineNs=*/0,
            [Transport](ExecutorConfig &Config) {
              Config.Transport = Transport;
            });
        EXPECT_EQ(R.Status, RunStatus::Success);
        EXPECT_FALSE(R.Stats.Recovered);
        EXPECT_EQ(FaultPlan::global().pendingCount(), 0u)
            << "the fault must actually have struck";
        if (Transport == TransportKind::Ring) {
          EXPECT_GT(R.Stats.WarmForks, 0u)
              << "the fault must have struck the WARM path";
        }
      }
    }
  }
  FaultPlan::global().clear();
}

TEST(PoolFaultMatrixTest, TemplatePoisonDegradesToColdAndRespawns) {
  // Killing the resident template mid-run is a pool fault, not a chunk
  // fault: the struck chunk runs cold, the next warm fork respawns the
  // template, and the run completes without the recovery ladder.
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    SCOPED_TRACE(engineName(Engine));
    FaultPlan::global().clear();
    FaultPlan::global().arm(FaultKind::TemplatePoison, /*Chunk=*/2,
                            /*Sticky=*/false);
    const RunResult R = runDisjointLoopRecovering(
        Engine, CommitOrderPolicy::InOrder, /*SeqBaselineNs=*/0,
        [](ExecutorConfig &Config) {
          Config.Transport = TransportKind::Ring;
        });
    EXPECT_EQ(R.Status, RunStatus::Success);
    EXPECT_FALSE(R.Stats.Recovered);
    // The poisoned chunk itself runs cold and clean; a SIBLING warm child
    // in flight when the template dies goes down with it (PDEATHSIG) and
    // is requeued as a contained child crash — at most one here (the
    // other worker), and only on the overlapping pipeline engine.
    EXPECT_LE(R.Stats.NumChildCrashes, 1u)
        << "poison itself must not masquerade as a chunk failure";
    EXPECT_GE(R.Stats.PoolFaults, 1u);
    EXPECT_GE(R.Stats.ColdForks, 1u) << "the struck chunk ran cold";
    EXPECT_GT(R.Stats.WarmForks, 0u) << "the pool respawned afterwards";
    EXPECT_EQ(FaultPlan::global().pendingCount(), 0u);
  }
  FaultPlan::global().clear();
}

TEST(PoolFaultMatrixTest, StickyPoisonRunsEveryForkColdAndStillSucceeds) {
  FaultPlan::global().clear();
  FaultPlan::global().arm(FaultKind::TemplatePoison, /*Chunk=*/0,
                          /*Sticky=*/true);
  // Iteration-blind sticky chunk-0 poison strikes only chunk 0's attempts;
  // arm every chunk instead so no fork ever finds a live template.
  for (int64_t C = 1; C != 6; ++C)
    FaultPlan::global().arm(FaultKind::TemplatePoison, C, /*Sticky=*/true);
  const RunResult R = runDisjointLoopRecovering(
      ParallelEngine::ForkJoin, CommitOrderPolicy::InOrder,
      /*SeqBaselineNs=*/0,
      [](ExecutorConfig &Config) { Config.Transport = TransportKind::Ring; });
  EXPECT_EQ(R.Status, RunStatus::Success)
      << "a permanently dead pool is a performance bug, never a failure";
  EXPECT_FALSE(R.Stats.Recovered);
  EXPECT_EQ(R.Stats.WarmForks, 0u);
  EXPECT_GE(R.Stats.ColdForks, 6u);
  EXPECT_GE(R.Stats.PoolFaults, 6u);
  FaultPlan::global().clear();
}

TEST(PoolFaultMatrixTest, ForkJoinNeverReusesResidentChildren) {
  // The round-barrier engine validates against round-local state
  // (resetRound), so a child whose snapshot predates the round would
  // validate against history the detector no longer holds. It must fork
  // every chunk fresh from the template — warm, but never fork-free.
  FaultPlan::global().clear();
  const RunResult R = runDisjointLoopRecovering(
      ParallelEngine::ForkJoin, CommitOrderPolicy::InOrder,
      /*SeqBaselineNs=*/0,
      [](ExecutorConfig &Config) { Config.Transport = TransportKind::Ring; });
  EXPECT_EQ(R.Status, RunStatus::Success);
  EXPECT_GT(R.Stats.WarmForks, 0u);
  EXPECT_EQ(R.Stats.ChildReuses, 0u)
      << "round-local validation cannot see commits older than the round";
}

TEST(PoolFaultMatrixTest, RingRecoveryReplaysDeterministically) {
  // Same-seed replay on the ring transport: two runs of the same sticky
  // bit-flip plan must walk identical commit orders and fault counters —
  // the determinism guarantee is transport-independent.
  auto Replay = [] {
    FaultPlan::global().clear();
    FaultPlan::global().setSeed(13);
    FaultPlan::global().arm(FaultKind::BitFlip, /*Chunk=*/1, /*Sticky=*/true);
    return runDisjointLoopRecovering(
        ParallelEngine::ForkJoin, CommitOrderPolicy::InOrder,
        /*SeqBaselineNs=*/0, [](ExecutorConfig &Config) {
          Config.Transport = TransportKind::Ring;
        });
  };
  const RunResult A = Replay();
  const RunResult B = Replay();
  EXPECT_EQ(A.Status, RunStatus::Success);
  EXPECT_EQ(A.CommitOrder, B.CommitOrder);
  EXPECT_EQ(A.Stats.NumWireRejects, B.Stats.NumWireRejects);
  EXPECT_EQ(A.Stats.QuarantinedIterations, B.Stats.QuarantinedIterations);
  EXPECT_EQ(A.Stats.SalvagedChunks, B.Stats.SalvagedChunks);
  FaultPlan::global().clear();
}

//===----------------------------------------------------------------------===
// The degradation ladder: salvage -> bisect -> quarantine
//===----------------------------------------------------------------------===

namespace {

/// Ladder events of the merged timeline, in emission order, reduced to the
/// deterministic tuple (timestamps excluded: engine poll counts vary).
std::vector<std::tuple<TraceEventKind, int64_t, uint64_t, uint64_t>>
ladderTransitions(const RunResult &R) {
  std::vector<std::tuple<TraceEventKind, int64_t, uint64_t, uint64_t>> Out;
  for (const TraceEvent &E : R.TraceEvents)
    if (E.Kind == TraceEventKind::Salvage ||
        E.Kind == TraceEventKind::Bisect ||
        E.Kind == TraceEventKind::Quarantine)
      Out.emplace_back(E.Kind, E.Chunk, E.Arg0, E.Arg1);
  return Out;
}

} // namespace

TEST(DegradationLadderTest, ExhaustedRetryBudgetHealsAtTierOne) {
  // Three one-shot kills burn the engine's whole per-chunk fault budget
  // (ChunkFaultRetryLimit = 2), so the run crashes — but the faults are
  // spent, and the FIRST solo salvage attempt commits the chunk
  // speculatively. No sequential work of any kind.
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    SCOPED_TRACE(engineName(Engine));
    FaultPlan::global().clear();
    for (int K = 0; K != 3; ++K)
      FaultPlan::global().arm(FaultKind::ChildKill, /*Chunk=*/1,
                              /*Sticky=*/false);
    const RunResult R =
        runDisjointLoopRecovering(Engine, CommitOrderPolicy::InOrder);
    EXPECT_EQ(R.Status, RunStatus::Success);
    EXPECT_FALSE(R.Stats.Recovered)
        << "tier 1 must resolve the chunk without sequential execution";
    EXPECT_EQ(R.Stats.SalvagedChunks, 1u);
    EXPECT_EQ(R.Stats.QuarantinedIterations, 0u);
    EXPECT_EQ(R.Stats.RecoveredIterations, 0u);
    EXPECT_EQ(R.Stats.BisectionRounds, 0u);
    EXPECT_EQ(FaultPlan::global().pendingCount(), 0u);
  }
  FaultPlan::global().clear();
}

TEST(DegradationLadderTest, StickyIterationFaultIsBisectedToOneIteration) {
  // A sticky fault pinned to iteration 6 follows the work through the
  // ladder: the solo chunk [4, 8) keeps failing, bisection commits the
  // healthy fragments [4, 6) and [7, 8) speculatively, and exactly the
  // poisoned iteration is quarantined.
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    SCOPED_TRACE(engineName(Engine));
    FaultPlan::global().clear();
    FaultPlan::global().armIteration(FaultKind::ChildKill, /*Iter=*/6,
                                     /*Sticky=*/true);
    const RunResult R =
        runDisjointLoopRecovering(Engine, CommitOrderPolicy::InOrder);
    EXPECT_EQ(R.Status, RunStatus::Success);
    EXPECT_TRUE(R.Stats.Recovered);
    EXPECT_EQ(R.Stats.QuarantinedIterations, 1u)
        << "only the poisoned iteration runs sequentially";
    EXPECT_EQ(R.Stats.SalvagedChunks, 2u) << "[4,6) and [7,8) commit solo";
    EXPECT_EQ(R.Stats.BisectionRounds, 2u) << "[4,8) and [6,8) are split";
    EXPECT_EQ(R.Stats.RecoveredIterations, 0u);
  }
  FaultPlan::global().clear();
}

TEST(DegradationLadderTest, LadderTransitionsReplayDeterministically) {
  // Two same-seed replays of the same sticky plan must walk the identical
  // salvage -> bisect -> quarantine sequence (the acceptance criterion for
  // supervised recovery: retries are a pure function of the plan).
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    SCOPED_TRACE(engineName(Engine));
    auto Replay = [Engine] {
      FaultPlan::global().clear();
      FaultPlan::global().setSeed(11);
      FaultPlan::global().armIteration(FaultKind::ChildCrash, /*Iter=*/6,
                                       /*Sticky=*/true);
      return runDisjointLoopRecovering(
          Engine, CommitOrderPolicy::InOrder, /*SeqBaselineNs=*/0,
          [](ExecutorConfig &Config) { Config.Trace = TraceLevel::Events; });
    };
    const RunResult A = Replay();
    const RunResult B = Replay();
    const auto TransA = ladderTransitions(A);
    EXPECT_FALSE(TransA.empty()) << "the plan must drive the ladder";
    EXPECT_EQ(TransA, ladderTransitions(B));
    EXPECT_EQ(A.Stats.SalvagedChunks, B.Stats.SalvagedChunks);
    EXPECT_EQ(A.Stats.QuarantinedIterations, B.Stats.QuarantinedIterations);
    EXPECT_EQ(A.Stats.BisectionRounds, B.Stats.BisectionRounds);
    // The ladder escalates monotonically per chunk: every Bisect comes
    // after the first Salvage, every Quarantine after the first Bisect.
    size_t FirstSalvage = TransA.size(), FirstBisect = TransA.size();
    for (size_t I = 0; I != TransA.size(); ++I) {
      const TraceEventKind Kind = std::get<0>(TransA[I]);
      if (Kind == TraceEventKind::Salvage && FirstSalvage == TransA.size())
        FirstSalvage = I;
      if (Kind == TraceEventKind::Bisect) {
        if (FirstBisect == TransA.size())
          FirstBisect = I;
        EXPECT_GT(I, FirstSalvage);
      }
      if (Kind == TraceEventKind::Quarantine) {
        EXPECT_GT(I, FirstBisect);
      }
    }
  }
  FaultPlan::global().clear();
}

TEST(DegradationLadderTest, EnvPlanCompletesWithSequentialOutput) {
  // Deliberately does NOT clear the global plan first: scripts/check.sh
  // runs this test under representative ALTER_FAULTS plans (the env plan is
  // parsed on first FaultPlan::global() access) and the ladder must finish
  // with the sequential memory image whatever was armed. Without
  // ALTER_FAULTS this is simply a clean recovering run.
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    SCOPED_TRACE(engineName(Engine));
    const RunResult R =
        runDisjointLoopRecovering(Engine, CommitOrderPolicy::InOrder);
    EXPECT_EQ(R.Status, RunStatus::Success);
  }
  FaultPlan::global().clear();
}

//===----------------------------------------------------------------------===
// Resource exhaustion: setup failures are contained transport downgrades
//===----------------------------------------------------------------------===

TEST(ResourceFaultMatrixTest, RingSetupFailureDegradesToColdTransport) {
  // ENOMEM on a slot's ring mmap, or EMFILE on its doorbell/work pipes, at
  // pool construction: the engine drops the invalid pool, counts a
  // ResourceFault and a TransportDowngrade, and runs the whole loop on the
  // cold pipe+fork transport — a performance downgrade, never a failure
  // and never the recovery ladder.
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    for (FaultKind Kind : {FaultKind::MmapFail, FaultKind::PipeExhaust}) {
      SCOPED_TRACE(std::string(engineName(Engine)) + "/" +
                   faultKindName(Kind));
      FaultPlan::global().clear();
      FaultPlan::global().arm(Kind, /*Slot=*/0);
      const RunResult R = runDisjointLoopRecovering(
          Engine, CommitOrderPolicy::InOrder, /*SeqBaselineNs=*/0,
          [](ExecutorConfig &Config) {
            Config.Transport = TransportKind::Ring;
          });
      EXPECT_EQ(R.Status, RunStatus::Success);
      EXPECT_FALSE(R.Stats.Recovered)
          << "a transport downgrade must not reach the ladder";
      EXPECT_EQ(R.Stats.WarmForks, 0u) << "the pool was dropped";
      EXPECT_GT(R.Stats.ColdForks, 0u) << "every fork ran cold";
      EXPECT_GE(R.Stats.ResourceFaults, 1u);
      EXPECT_GE(R.Stats.TransportDowngrades, 1u);
      EXPECT_EQ(FaultPlan::global().pendingCount(), 0u)
          << "the setup fault must actually have struck";
    }
  }
  FaultPlan::global().clear();
}

TEST(ResourceFaultMatrixTest, SetupFaultsAreNoOpsOnThePipeTransport) {
  // The pipe transport allocates no rings and no pool: a slot-targeted
  // setup fault has nothing to strike. The run is clean and the fault
  // stays armed (it is not silently consumed by unrelated code).
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    SCOPED_TRACE(engineName(Engine));
    FaultPlan::global().clear();
    FaultPlan::global().arm(FaultKind::MmapFail, /*Slot=*/0);
    FaultPlan::global().arm(FaultKind::PipeExhaust, /*Slot=*/0);
    const RunResult R = runDisjointLoopRecovering(
        Engine, CommitOrderPolicy::InOrder, /*SeqBaselineNs=*/0,
        [](ExecutorConfig &Config) {
          Config.Transport = TransportKind::Pipe;
        });
    EXPECT_EQ(R.Status, RunStatus::Success);
    EXPECT_EQ(R.Stats.ResourceFaults, 0u);
    EXPECT_EQ(R.Stats.TransportDowngrades, 0u);
    EXPECT_EQ(FaultPlan::global().pendingCount(), 2u);
  }
  FaultPlan::global().clear();
}

TEST(ResourceFaultMatrixTest, StagedSetupFailureFallsBackThroughLadder) {
  // A stage replica whose commit-ring mmap or pipe setup fails cannot join
  // the generation. The staged engine has no cold transport to retreat to
  // (its rings ARE the inter-stage queue), so it reports a contained Crash
  // and the ladder's chunked sub-runs finish the loop to a valid output.
  std::unique_ptr<Workload> W = makeWorkload("ssca2");
  W->setUp(0);
  W->runSequential();
  const std::vector<double> Reference = W->outputSignature();
  for (FaultKind Kind : {FaultKind::MmapFail, FaultKind::PipeExhaust}) {
    SCOPED_TRACE(faultKindName(Kind));
    FaultPlan::global().clear();
    FaultPlan::global().arm(Kind, /*Slot=*/0);
    W->setUp(0);
    const RunResult R = W->runScheduled(
        SchedulePolicy::Staged, W->resolveAnnotation(*W->paperAnnotation()),
        /*NumWorkers=*/4);
    EXPECT_EQ(R.Status, RunStatus::Success) << R.Detail;
    EXPECT_TRUE(W->validate(Reference))
        << "degraded run must still match sequential";
    EXPECT_GE(R.Stats.ResourceFaults, 1u);
    EXPECT_GE(R.Stats.NumForkFailures, 1u);
    EXPECT_EQ(FaultPlan::global().pendingCount(), 0u);
  }
  FaultPlan::global().clear();
}

//===----------------------------------------------------------------------===
// Graceful shutdown: every engine winds down to a valid Interrupted result
//===----------------------------------------------------------------------===

namespace {

/// Live (unreaped) children of this process, per the kernel. Empty when
/// every forked child — template, resident, stage replica, cold chunk
/// child — has been reaped.
std::string liveChildrenOfSelf() {
  std::ifstream In("/proc/self/task/" + std::to_string(::getpid()) +
                   "/children");
  std::string Out((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  while (!Out.empty() && (Out.back() == ' ' || Out.back() == '\n'))
    Out.pop_back();
  return Out;
}

} // namespace

TEST(ShutdownTest, SignalStormInterruptsChunkedEnginesWithoutOrphans) {
  // An injected shutdown signal arriving as chunk 2 is about to fork: the
  // engine stops dispatching, kills and reaps everything in flight, and
  // returns Interrupted. The recovery ladder must NOT try to finish the
  // loop — an interrupt is a command to stop, not a fault to heal — and
  // the chunks that did commit must hold their sequential values.
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    for (TransportKind Transport :
         {TransportKind::Pipe, TransportKind::Ring}) {
      SCOPED_TRACE(std::string(engineName(Engine)) + "/" +
                   transportKindName(Transport));
      clearShutdownRequest();
      FaultPlan::global().clear();
      FaultPlan::global().arm(FaultKind::SignalStorm, /*Chunk=*/2);
      constexpr int64_t N = 24;
      constexpr int64_t Cf = 4;
      std::vector<int64_t> Data(N, -1);
      LoopSpec Spec;
      Spec.NumIterations = N;
      Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
        Ctx.store(&Data[static_cast<size_t>(I)], I * 3 + 1);
      };
      ExecutorConfig Config;
      Config.NumWorkers = 2;
      Config.Params.ChunkFactor = Cf;
      Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
      Config.Transport = Transport;
      RecoveringLoopRunner Runner(Engine, Config);
      EXPECT_FALSE(Runner.runInner(Spec))
          << "an interrupted loop must stop the workload";
      const RunResult &R = Runner.result();
      EXPECT_EQ(R.Status, RunStatus::Interrupted) << R.Detail;
      EXPECT_NE(R.Detail.find("interrupted"), std::string::npos) << R.Detail;
      EXPECT_EQ(R.Stats.RecoveredIterations, 0u)
          << "the ladder must not finish an interrupted loop";
      EXPECT_EQ(R.Stats.QuarantinedIterations, 0u);
      // An operator signal is neither a failed fork nor a resource fault.
      EXPECT_EQ(R.Stats.NumForkFailures, 0u);
      EXPECT_EQ(R.Stats.ResourceFaults, 0u);
      EXPECT_TRUE(shutdownRequested());
      EXPECT_EQ(liveChildrenOfSelf(), "") << "no child may be orphaned";
      // Committed chunks are real commits: their memory is sequential.
      for (int64_t C : R.CommitOrder)
        for (int64_t I = C * Cf; I != std::min<int64_t>((C + 1) * Cf, N); ++I)
          EXPECT_EQ(Data[static_cast<size_t>(I)], I * 3 + 1)
              << "committed chunk " << C << " iteration " << I;
      clearShutdownRequest();
      FaultPlan::global().clear();
    }
  }
}

TEST(ShutdownTest, SignalStormInterruptsTheStagedEngine) {
  clearShutdownRequest();
  std::unique_ptr<Workload> W = makeWorkload("ssca2");
  FaultPlan::global().clear();
  FaultPlan::global().arm(FaultKind::SignalStorm, /*Chunk=*/1);
  W->setUp(0);
  const RunResult R = W->runScheduled(
      SchedulePolicy::Staged, W->resolveAnnotation(*W->paperAnnotation()),
      /*NumWorkers=*/4);
  FaultPlan::global().clear();
  EXPECT_EQ(R.Status, RunStatus::Interrupted) << R.Detail;
  EXPECT_NE(R.Detail.find("interrupted"), std::string::npos) << R.Detail;
  EXPECT_TRUE(shutdownRequested());
  EXPECT_EQ(liveChildrenOfSelf(), "")
      << "every stage replica must be reaped on interrupt";
  clearShutdownRequest();
}

TEST(ShutdownTest, RealSigtermReturnsInterruptedOnEveryEngine) {
  // The real signal path: SIGTERM delivered to the parent (synchronously,
  // via raise) is latched by the supervisor; every engine notices before
  // dispatching anything and returns a valid Interrupted result with zero
  // chunks committed and zero children left behind.
  FaultPlan::global().clear();
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline,
        ParallelEngine::Threaded}) {
    SCOPED_TRACE(engineName(Engine));
    clearShutdownRequest();
    ensureShutdownSupervisorInstalled();
    ASSERT_EQ(::raise(SIGTERM), 0);
    ASSERT_TRUE(shutdownRequested()) << "the supervisor must latch SIGTERM";
    EXPECT_EQ(shutdownSignal(), SIGTERM);
    constexpr int64_t N = 24;
    std::vector<int64_t> Data(N, -1);
    LoopSpec Spec;
    Spec.NumIterations = N;
    Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
      Ctx.store(&Data[static_cast<size_t>(I)], I);
    };
    ExecutorConfig Config;
    Config.NumWorkers = 2;
    Config.Params.ChunkFactor = 4;
    RecoveringLoopRunner Runner(Engine, Config);
    EXPECT_FALSE(Runner.runInner(Spec));
    const RunResult &R = Runner.result();
    EXPECT_EQ(R.Status, RunStatus::Interrupted) << R.Detail;
    EXPECT_TRUE(R.CommitOrder.empty())
        << "a pre-latched signal must stop the run before any dispatch";
    EXPECT_EQ(liveChildrenOfSelf(), "");
    clearShutdownRequest();
  }
}

//===----------------------------------------------------------------------===
// Pool lifetime: every invocation of an outer loop runs warm, and nothing
// of the retired templates outlives the runner
//===----------------------------------------------------------------------===

namespace {

/// Shared lines of /proc/self/maps (permissions ending in 's'). The
/// commit rings are the only shared mappings the runtime makes, so a leaked
/// ring shows up here even under an allocator that maps memory of its own
/// (AddressSanitizer's does).
size_t sharedMapsLineCount() {
  std::ifstream In("/proc/self/maps");
  size_t Count = 0;
  std::string Range, Perms, Rest;
  while (In >> Range >> Perms && std::getline(In, Rest))
    Count += Perms.size() == 4 && Perms[3] == 's' ? 1 : 0;
  return Count;
}

/// Drives Invocations runInner calls through one RecoveringLoopRunner, the
/// way an outer convergence loop does: between calls the outer code writes
/// Base plainly (not through TxnContext), and every call's LoopSpec
/// captures its own K. One-shot faults strike three chosen invocations.
void checkPoolLifetime(ParallelEngine Engine, TransportKind Transport) {
  constexpr int Invocations = 50;
  constexpr int64_t N = 24;
  constexpr int64_t Cf = 2;
  constexpr uint64_t Chunks = N / Cf;
  constexpr int CrashAt = 10, PoisonAt = 25, MmapFailAt = 40;
  const bool Ring = Transport == TransportKind::Ring;

  std::vector<int64_t> Data(N, -1);
  int64_t Base = 0;
  std::vector<RunStats> PerRun;
  uint64_t ForkEvents = 0, WarmEvents = 0, ReuseEvents = 0;
  RunStats Total;

  FaultPlan::global().clear();
  const size_t MapsBaseline = sharedMapsLineCount();
  {
    ExecutorConfig Config;
    Config.NumWorkers = 3;
    Config.Params.ChunkFactor = Cf;
    Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
    Config.Transport = Transport;
    Config.Schedule = SchedulePolicy::Chunked;
    // Fork events carry the dispatch kind (Arg1: 0 cold, 1 warm, 2
    // redispatch), an account kept apart from the pool's own counters.
    Config.Trace = TraceLevel::Events;
    RecoveringLoopRunner Runner(Engine, Config);
    for (int Inv = 0; Inv != Invocations; ++Inv) {
      SCOPED_TRACE("invocation " + std::to_string(Inv));
      Base = 1000 * Inv; // a plain outer write the children must see
      const int64_t K = 7 * Inv + 1;
      if (Inv == CrashAt)
        FaultPlan::global().arm(FaultKind::ChildCrash, /*Chunk=*/1);
      if (Inv == PoisonAt)
        FaultPlan::global().arm(FaultKind::TemplatePoison, /*Chunk=*/1);
      if (Inv == MmapFailAt)
        FaultPlan::global().arm(FaultKind::MmapFail, /*Slot=*/0);
      LoopSpec Spec;
      Spec.Name = "lifetime";
      Spec.NumIterations = N;
      Spec.Body = [&Data, &Base, K](TxnContext &Ctx, int64_t I) {
        Ctx.store(&Data[static_cast<size_t>(I)], Ctx.load(&Base) + K * I);
      };
      const RunStats Before = Runner.result().Stats;
      ASSERT_TRUE(Runner.runInner(Spec)) << Runner.result().Detail;
      std::istringstream Children(liveChildrenOfSelf());
      EXPECT_LE(std::distance(std::istream_iterator<std::string>(Children),
                              std::istream_iterator<std::string>()),
                Ring ? 1 : 0)
          << "at most one retired template may be parked";
      const RunStats &After = Runner.result().Stats;
      RunStats D;
      D.WarmForks = After.WarmForks - Before.WarmForks;
      D.ColdForks = After.ColdForks - Before.ColdForks;
      D.ChildReuses = After.ChildReuses - Before.ChildReuses;
      D.PoolFaults = After.PoolFaults - Before.PoolFaults;
      D.NumChildCrashes = After.NumChildCrashes - Before.NumChildCrashes;
      D.TransportDowngrades =
          After.TransportDowngrades - Before.TransportDowngrades;
      PerRun.push_back(D);
      for (int64_t I = 0; I != N; ++I)
        ASSERT_EQ(Data[static_cast<size_t>(I)], Base + K * I)
            << "iteration " << I << " missed this invocation's values";
    }
    EXPECT_FALSE(Runner.result().Stats.Recovered);
    Total = Runner.result().Stats;
    for (const TraceEvent &E : Runner.result().TraceEvents) {
      if (E.Kind != TraceEventKind::Fork)
        continue;
      ++ForkEvents;
      WarmEvents += E.Arg1 >= 1 ? 1 : 0;
      ReuseEvents += E.Arg1 == 2 ? 1 : 0;
    }
  }
  // The runner (and with it the engine and its parked template) is gone:
  // nothing of any pool may outlive it.
  EXPECT_EQ(liveChildrenOfSelf(), "");
  EXPECT_EQ(sharedMapsLineCount(), MapsBaseline) << "a ring mapping leaked";

  RunStats Sum;
  for (size_t Inv = 0; Inv != PerRun.size(); ++Inv) {
    SCOPED_TRACE("invocation " + std::to_string(Inv));
    const RunStats &D = PerRun[Inv];
    Sum.WarmForks += D.WarmForks;
    Sum.ColdForks += D.ColdForks;
    Sum.ChildReuses += D.ChildReuses;
    Sum.PoolFaults += D.PoolFaults;
    const int At = static_cast<int>(Inv);
    // A poisoned template may take one in-flight sibling down with it.
    if (!(Ring && At == PoisonAt)) {
      EXPECT_EQ(D.NumChildCrashes > 0, At == CrashAt)
          << "a crash degrades its own invocation only";
    }
    EXPECT_EQ(D.PoolFaults > 0, Ring && At == PoisonAt);
    EXPECT_EQ(D.TransportDowngrades > 0, Ring && At == MmapFailAt);
    EXPECT_LE(D.ChildReuses, D.WarmForks);
    EXPECT_GE(D.WarmForks + D.ColdForks, Chunks);
    const bool Degraded = At == CrashAt || At == PoisonAt || At == MmapFailAt;
    if (!Ring) {
      EXPECT_EQ(D.WarmForks, 0u);
    } else if (!Degraded) {
      // Every clean invocation runs warm, the one after a fault included.
      EXPECT_EQ(D.WarmForks, Chunks);
      EXPECT_EQ(D.ColdForks, 0u);
    }
  }
  EXPECT_EQ(Total.WarmForks, Sum.WarmForks);
  EXPECT_EQ(Total.ColdForks, Sum.ColdForks);
  EXPECT_EQ(Total.ChildReuses, Sum.ChildReuses);
  EXPECT_EQ(Total.PoolFaults, Sum.PoolFaults);
  EXPECT_EQ(Total.WarmForks + Total.ColdForks, ForkEvents);
  EXPECT_EQ(Total.WarmForks, WarmEvents);
  EXPECT_EQ(Total.ChildReuses, ReuseEvents);
  if (Engine == ParallelEngine::ForkJoin) {
    EXPECT_EQ(Total.ChildReuses, 0u);
  }
  // Setup faults have nothing to strike on the pipe transport.
  EXPECT_EQ(FaultPlan::global().pendingCount(), Ring ? 0u : 1u);
  FaultPlan::global().clear();
}

} // namespace

TEST(PoolLifetimeTest, EveryInvocationOfAnOuterLoopRunsWarm) {
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    for (TransportKind Transport :
         {TransportKind::Ring, TransportKind::Pipe}) {
      SCOPED_TRACE(std::string(engineName(Engine)) + "/" +
                   transportKindName(Transport));
      checkPoolLifetime(Engine, Transport);
    }
  }
}

TEST(ConfigurationSemanticsTest, StaleReadsOutputDependsOnWorkersAndCf) {
  // "every time the generated executable is run with the same program
  // input and the same values for number of processes N, the chunk factor
  // cf and configuration parameters ... it produces the same output" —
  // and, implicitly, different N or cf may legally produce different
  // (still valid) outputs under StaleReads. Demonstrate both halves on
  // the chain loop, whose snapshot pattern shifts with the round shape.
  auto RunChain = [](unsigned Workers, int Cf) {
    std::vector<double> X(65, 0.0);
    LoopSpec Spec;
    Spec.NumIterations = 64;
    Spec.Body = [&X](TxnContext &Ctx, int64_t I) {
      const double V = Ctx.load(&X[static_cast<size_t>(I)]);
      Ctx.store(&X[static_cast<size_t>(I) + 1], V + 1.0);
    };
    ExecutorConfig Config;
    Config.NumWorkers = Workers;
    Config.Params.Conflict = ConflictPolicy::WAW;
    Config.Params.ChunkFactor = Cf;
    LockstepExecutor Exec(Config);
    EXPECT_TRUE(Exec.run(Spec).succeeded());
    return X;
  };
  // Same configuration twice: identical.
  EXPECT_EQ(RunChain(3, 2), RunChain(3, 2));
  // Different worker counts: legitimately different snapshots.
  EXPECT_NE(RunChain(2, 2), RunChain(4, 2));
  // Different chunk factors: likewise.
  EXPECT_NE(RunChain(3, 1), RunChain(3, 4));
  // P = 1 degenerates to sequential regardless of cf.
  EXPECT_EQ(RunChain(1, 4), RunChain(1, 16));
}

//===----------------------------------------------------------------------===
// Commit journal: durability, lease protocol, torn-tail recovery
//===----------------------------------------------------------------------===

namespace {

/// The disjoint-writes loop used throughout this file, packaged with its
/// backing memory so a test can reset it between "restarts": replay by
/// re-execution assumes the deterministic initial state (-1 everywhere).
struct JournaledLoop {
  static constexpr int64_t N = 24;
  std::vector<int64_t> Data;
  LoopSpec Spec;
  JournaledLoop() : Data(static_cast<size_t>(N), -1) {
    Spec.NumIterations = N;
    Spec.Body = [this](TxnContext &Ctx, int64_t I) {
      Ctx.store(&Data[static_cast<size_t>(I)], I * 3 + 1);
    };
  }
  bool sequentialImage() const {
    for (int64_t I = 0; I != N; ++I)
      if (Data[static_cast<size_t>(I)] != I * 3 + 1)
        return false;
    return true;
  }
};

/// Runs the loop under the recovery driver with \p J attached (2 workers,
/// chunk factor 4 — six chunks).
RunResult runJournaled(JournaledLoop &L, CommitJournal *J,
                       ParallelEngine Engine = ParallelEngine::ForkJoin,
                       bool Metrics = false) {
  FaultPlan::global().clear();
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.ChunkFactor = 4;
  Config.Journal = J;
  Config.Metrics = Metrics;
  RecoveringLoopRunner Runner(Engine, Config);
  EXPECT_TRUE(Runner.runInner(L.Spec));
  return Runner.result();
}

std::string journalPath(const std::string &Tag) {
  return "/tmp/alter_jtest_" + std::to_string(::getpid()) + "_" + Tag +
         ".alterj";
}

JournalIdentity testIdentity() {
  JournalIdentity Id;
  Id.Workload = "robustness-test";
  Id.ChunkFactor = 4;
  return Id;
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

/// True when \p Got is a (possibly empty) prefix of \p Want, comparing the
/// fields recovery acts on. The torn-tail rule promises exactly this: a
/// reopened journal never surfaces a frame the original run didn't write.
bool framesArePrefix(const std::vector<JournalFrame> &Got,
                     const std::vector<JournalFrame> &Want) {
  if (Got.size() > Want.size())
    return false;
  for (size_t I = 0; I != Got.size(); ++I) {
    const JournalFrame &G = Got[I], &W = Want[I];
    if (G.FrameKind != W.FrameKind || G.Invocation != W.Invocation ||
        G.Chunk != W.Chunk || G.FirstIter != W.FirstIter ||
        G.LastIter != W.LastIter)
      return false;
  }
  return true;
}

/// Records one complete journaled run at \p Path and returns its frames.
std::vector<JournalFrame> recordReferenceJournal(const std::string &Path) {
  ::unlink(Path.c_str());
  std::string Error;
  CommitJournal::Options Opts;
  Opts.Policy = DurabilityPolicy::PerCommit;
  auto J = CommitJournal::open(Path, testIdentity(), Opts, &Error);
  EXPECT_TRUE(J) << Error;
  JournaledLoop L;
  runJournaled(L, J.get());
  EXPECT_TRUE(L.sequentialImage());
  J.reset(); // clean close: lease released, everything synced
  auto R = CommitJournal::open(Path, testIdentity(), Opts, &Error);
  EXPECT_TRUE(R) << Error;
  return R->frames();
}

} // namespace

TEST(JournalTest, RecordThenReplayReproducesSequentialOutput) {
  // Record with a PerCommit journal and metrics on, then "restart": fresh
  // memory, same journal. The completed invocation must replay by
  // re-execution — no engine dispatch, identical output. The threaded
  // engine applies commits in process; it must journal each chunk before
  // applying it, exactly like the fork engines.
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Threaded}) {
    SCOPED_TRACE(engineName(Engine));
    const std::string Path =
        journalPath(std::string("roundtrip_") + engineName(Engine));
    ::unlink(Path.c_str());
    std::string Error;
    CommitJournal::Options Opts;
    Opts.Policy = DurabilityPolicy::PerCommit;
    {
      auto J = CommitJournal::open(Path, testIdentity(), Opts, &Error);
      ASSERT_TRUE(J) << Error;
      EXPECT_FALSE(J->recovered());
      EXPECT_EQ(J->epoch(), 1u);
      JournaledLoop L;
      const RunResult R = runJournaled(L, J.get(), Engine, /*Metrics=*/true);
      EXPECT_TRUE(L.sequentialImage());
      EXPECT_EQ(R.Stats.NumCommitted, 6u);
      EXPECT_EQ(R.Metrics.counter(CounterId::ParentCommits),
                R.Stats.NumCommitted)
          << "parent_commits counts every applied chunk";
      EXPECT_GT(R.Stats.JournalBytes, 0u);
      EXPECT_GT(R.Stats.JournalFsyncs, 0u) << "PerCommit syncs every frame";
      EXPECT_EQ(R.Stats.ReplayedChunks, 0u);
    }
    auto J = CommitJournal::open(Path, testIdentity(), Opts, &Error);
    ASSERT_TRUE(J) << Error;
    EXPECT_TRUE(J->recovered());
    EXPECT_EQ(J->epoch(), 2u) << "takeover bumps the epoch";
    ASSERT_GE(J->frames().size(), 3u);
    EXPECT_EQ(J->frames().front().FrameKind, JournalFrame::Kind::LoopBegin);
    EXPECT_EQ(J->frames().back().FrameKind, JournalFrame::Kind::LoopEnd);
    EXPECT_EQ(std::count_if(J->frames().begin(), J->frames().end(),
                            [](const JournalFrame &F) {
                              return F.FrameKind == JournalFrame::Kind::Commit;
                            }),
              6)
        << "one frame per committed chunk";
    JournaledLoop L;
    const RunResult R = runJournaled(L, J.get(), Engine);
    EXPECT_TRUE(L.sequentialImage());
    EXPECT_EQ(R.Stats.ReplayedChunks, 6u) << "six committed chunks replay";
    EXPECT_GT(R.Stats.RecoveryNs, 0u);
    EXPECT_TRUE(R.CommitOrder.empty())
        << "a pure replay dispatches nothing speculative";
    J.reset();
    ::unlink(Path.c_str());
  }
}

TEST(JournalTest, ReplayIsIdempotentAcrossRepeatedRestarts) {
  // Reopening a completed journal any number of times replays the same
  // serialization: no frame is applied twice, no chunk re-executes as
  // fresh work.
  const std::string Path = journalPath("idempotent");
  const std::vector<JournalFrame> Reference = recordReferenceJournal(Path);
  std::string Error;
  for (int Round = 0; Round != 3; ++Round) {
    auto J = CommitJournal::open(Path, testIdentity(),
                                 CommitJournal::Options(), &Error);
    ASSERT_TRUE(J) << Error;
    EXPECT_TRUE(framesArePrefix(J->frames(), Reference));
    EXPECT_EQ(J->frames().size(), Reference.size())
        << "a clean journal loses nothing on reopen";
    JournaledLoop L;
    const RunResult R = runJournaled(L, J.get());
    EXPECT_TRUE(L.sequentialImage());
    EXPECT_EQ(R.Stats.ReplayedChunks, 6u);
  }
  ::unlink(Path.c_str());
}

TEST(JournalTest, LeaseRefusesLiveOwnerAndReapsDeadOwner) {
  const std::string Path = journalPath("lease");
  recordReferenceJournal(Path);
  std::string Error;
  // A live owner (pid 1 always exists; kill(1, 0) yields EPERM, which the
  // lease treats as alive) must refuse the open.
  ASSERT_TRUE(CommitJournal::forgeLease(Path, 1, &Error)) << Error;
  auto Refused = CommitJournal::open(Path, testIdentity(),
                                     CommitJournal::Options(), &Error);
  EXPECT_EQ(Refused, nullptr);
  EXPECT_NE(Error.find("is live"), std::string::npos) << Error;
  // A dead owner (a pid far beyond pid_max never runs) is reaped: the open
  // takes the lease over and the journal recovers normally.
  ASSERT_TRUE(CommitJournal::forgeLease(Path, 999999999, &Error)) << Error;
  auto Taken = CommitJournal::open(Path, testIdentity(),
                                   CommitJournal::Options(), &Error);
  ASSERT_TRUE(Taken) << Error;
  EXPECT_TRUE(Taken->recovered());
  Taken.reset();
  ::unlink(Path.c_str());
}

TEST(JournalTest, IdentityMismatchIsARefusedOpen) {
  const std::string Path = journalPath("identity");
  recordReferenceJournal(Path);
  const std::vector<uint8_t> Before = readFileBytes(Path);
  JournalIdentity Other = testIdentity();
  Other.Workload = "some-other-workload";
  std::string Error;
  auto J = CommitJournal::open(Path, Other, CommitJournal::Options(), &Error);
  EXPECT_EQ(J, nullptr);
  EXPECT_NE(Error.find("different run"), std::string::npos) << Error;
  EXPECT_EQ(readFileBytes(Path), Before) << "a refused journal is untouched";
  ::unlink(Path.c_str());
}

TEST(JournalTest, OtherFormatVersionIsARefusedOpen) {
  // An intact header of another format version describes a different frame
  // layout: the open must refuse it, neither misreading nor wiping it.
  const std::string Path = journalPath("version");
  recordReferenceJournal(Path);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  ASSERT_GT(Bytes.size(), 25u);
  uint64_t HLen = 0;
  std::memcpy(&HLen, Bytes.data() + 8, sizeof(HLen));
  Bytes[24] = 1; // the header payload opens with the version varint
  const uint64_t Crc = wireCrc32(Bytes.data() + 24, HLen);
  std::memcpy(Bytes.data() + 16, &Crc, sizeof(Crc));
  writeFileBytes(Path, Bytes);
  std::string Error;
  auto J = CommitJournal::open(Path, testIdentity(), CommitJournal::Options(),
                               &Error);
  EXPECT_EQ(J, nullptr);
  EXPECT_NE(Error.find("version 1"), std::string::npos) << Error;
  EXPECT_EQ(readFileBytes(Path), Bytes) << "a refused journal is untouched";
  ::unlink(Path.c_str());
}

TEST(JournalTest, InterruptedRunResumesAfterRestart) {
  // Satellite: SIGTERM lands, the engine returns Interrupted, the runner
  // flushes the journal without closing the invocation. A restart resumes
  // that invocation and completes the loop.
  const std::string Path = journalPath("interrupted");
  ::unlink(Path.c_str());
  std::string Error;
  CommitJournal::Options Opts;
  Opts.Policy = DurabilityPolicy::PerCommit;
  FaultPlan::global().clear();
  {
    auto J = CommitJournal::open(Path, testIdentity(), Opts, &Error);
    ASSERT_TRUE(J) << Error;
    ensureShutdownSupervisorInstalled();
    clearShutdownRequest();
    ASSERT_EQ(::raise(SIGTERM), 0);
    JournaledLoop L;
    ExecutorConfig Config;
    Config.NumWorkers = 2;
    Config.Params.ChunkFactor = 4;
    Config.Journal = J.get();
    RecoveringLoopRunner Runner(ParallelEngine::ForkJoin, Config);
    EXPECT_FALSE(Runner.runInner(L.Spec));
    EXPECT_EQ(Runner.result().Status, RunStatus::Interrupted);
    clearShutdownRequest();
  }
  auto J = CommitJournal::open(Path, testIdentity(), Opts, &Error);
  ASSERT_TRUE(J) << Error;
  ASSERT_TRUE(J->recovered());
  EXPECT_NE(J->frames().back().FrameKind, JournalFrame::Kind::LoopEnd)
      << "the interrupted invocation must still be open";
  JournaledLoop L;
  const RunResult R = runJournaled(L, J.get());
  EXPECT_TRUE(L.sequentialImage());
  EXPECT_EQ(R.Status, RunStatus::Success);
  J.reset();
  ::unlink(Path.c_str());
}

TEST(JournalTest, ResumeRunsOlderChunksBeforeTheIndictedOne) {
  // A restarted invocation that committed nothing runs its chunks in
  // parallel. Iteration 5 reads past the access-set cap, so chunk 1's
  // child overflows and the run indicts chunk 1 while its round-mate,
  // chunk 0, is still uncommitted. Every iteration folds into one
  // accumulator, so the result equals sequential execution only if chunk 0
  // commits before any part of chunk 1 does.
  const std::string Path = journalPath("older_first");
  ::unlink(Path.c_str());
  constexpr int64_t N = 24;
  constexpr int64_t Wide = 5;
  const std::vector<uint64_t> Table(1 << 14, 1);
  uint64_t Acc = 1;
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Table, &Acc](TxnContext &Ctx, int64_t I) {
    uint64_t Extra = 0;
    if (I == Wide)
      for (const uint64_t &V : Table)
        Extra += Ctx.load(&V);
    Ctx.store(&Acc, Ctx.load(&Acc) * 3 + static_cast<uint64_t>(I) + Extra);
  };
  uint64_t Expected = 1;
  for (int64_t I = 0; I != N; ++I)
    Expected = Expected * 3 + static_cast<uint64_t>(I) +
               (I == Wide ? Table.size() : 0);
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.ChunkFactor = 4;
  Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
  Config.Limits.MaxAccessSetBytes = 64 * 1024;
  FaultPlan::global().clear();
  std::string Error;
  CommitJournal::Options Opts;
  Opts.Policy = DurabilityPolicy::PerCommit;
  {
    // A pre-latched SIGTERM leaves the journal with the invocation opened
    // and nothing committed.
    auto J = CommitJournal::open(Path, testIdentity(), Opts, &Error);
    ASSERT_TRUE(J) << Error;
    ensureShutdownSupervisorInstalled();
    clearShutdownRequest();
    ASSERT_EQ(::raise(SIGTERM), 0);
    Config.Journal = J.get();
    RecoveringLoopRunner Runner(ParallelEngine::ForkJoin, Config);
    EXPECT_FALSE(Runner.runInner(Spec));
    clearShutdownRequest();
  }
  auto J = CommitJournal::open(Path, testIdentity(), Opts, &Error);
  ASSERT_TRUE(J) << Error;
  ASSERT_EQ(J->frames().size(), 1u) << "only the LoopBegin frame";
  Acc = 1; // the restart rebuilds the initial state
  Config.Journal = J.get();
  RecoveringLoopRunner Runner(ParallelEngine::ForkJoin, Config);
  ASSERT_TRUE(Runner.runInner(Spec)) << Runner.result().Detail;
  const RunResult &R = Runner.result();
  EXPECT_EQ(R.Status, RunStatus::Success);
  EXPECT_EQ(R.Stats.QuarantinedIterations, 1u)
      << "only the iteration past the cap runs in place";
  EXPECT_EQ(Acc, Expected)
      << "chunk 0 must commit before the indicted chunk 1 is resolved";
  J.reset();
  ::unlink(Path.c_str());
}

TEST(ShutdownTest, RequestDuringTheLadderStopsItWithTheInvocationOpen) {
  // A sticky kill walks chunk 1 down the ladder to quarantine, where the
  // body first runs in the parent — and there, at iteration 4, latches a
  // shutdown request. The ladder must stop at once: no further solo
  // attempt, bisection, quarantine or floor, no iteration after the
  // request, and the journaled invocation stays open for a restart.
  const pid_t Parent = ::getpid();
  for (ParallelEngine Engine :
       {ParallelEngine::ForkJoin, ParallelEngine::Pipeline}) {
    SCOPED_TRACE(engineName(Engine));
    const std::string Path =
        journalPath(std::string("ladder_stop_") + engineName(Engine));
    ::unlink(Path.c_str());
    std::string Error;
    auto J = CommitJournal::open(Path, testIdentity(),
                                 CommitJournal::Options(), &Error);
    ASSERT_TRUE(J) << Error;
    clearShutdownRequest();
    FaultPlan::global().clear();
    FaultPlan::global().arm(FaultKind::ChildKill, /*Chunk=*/1,
                            /*Sticky=*/true);
    constexpr int64_t N = 24;
    std::vector<int64_t> Data(N, -1);
    int64_t RanAfterRequest = 0;
    LoopSpec Spec;
    Spec.NumIterations = N;
    Spec.Body = [&Data, &RanAfterRequest, Parent](TxnContext &Ctx,
                                                  int64_t I) {
      if (::getpid() == Parent) {
        RanAfterRequest += shutdownRequested() ? 1 : 0;
        requestShutdown();
      }
      Ctx.store(&Data[static_cast<size_t>(I)], I * 3 + 1);
    };
    ExecutorConfig Config;
    Config.NumWorkers = 2;
    Config.Params.ChunkFactor = 4;
    Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
    Config.Journal = J.get();
    RecoveringLoopRunner Runner(Engine, Config);
    EXPECT_FALSE(Runner.runInner(Spec));
    FaultPlan::global().clear();
    const RunResult &R = Runner.result();
    EXPECT_EQ(R.Status, RunStatus::Interrupted) << R.Detail;
    EXPECT_EQ(R.Stats.QuarantinedIterations, 1u)
        << "the request stops the ladder inside its first quarantine";
    EXPECT_EQ(R.Stats.RecoveredIterations, 0u) << "no floor after a request";
    EXPECT_EQ(RanAfterRequest, 0) << "no iteration after the request";
    for (int64_t I = 5; I != N; ++I)
      EXPECT_EQ(Data[static_cast<size_t>(I)], -1)
          << "iteration " << I << " ran after the request";
    EXPECT_EQ(liveChildrenOfSelf(), "");
    clearShutdownRequest();
    J.reset();
    auto Reopened = CommitJournal::open(Path, testIdentity(),
                                        CommitJournal::Options(), &Error);
    ASSERT_TRUE(Reopened) << Error;
    for (const JournalFrame &F : Reopened->frames())
      EXPECT_NE(F.FrameKind, JournalFrame::Kind::LoopEnd)
          << "the interrupted invocation must stay open";
    Reopened.reset();
    ::unlink(Path.c_str());
  }
}

TEST(TornTailTest, TruncationAtEveryOffsetKeepsOnlyAValidPrefix) {
  // Fuzz-truncate a recorded journal at EVERY byte length. Whatever
  // survives, open() must accept only frames the original run wrote —
  // a torn frame is discarded, never decoded into something new.
  const std::string Path = journalPath("trunc_ref");
  const std::vector<JournalFrame> Reference = recordReferenceJournal(Path);
  ASSERT_FALSE(Reference.empty());
  const std::vector<uint8_t> Orig = readFileBytes(Path);
  ASSERT_FALSE(Orig.empty());
  const std::string TPath = journalPath("trunc_case");
  std::string Error;
  size_t FullPrefixes = 0;
  for (size_t Len = 0; Len <= Orig.size(); ++Len) {
    std::vector<uint8_t> Cut(Orig.begin(),
                             Orig.begin() + static_cast<ptrdiff_t>(Len));
    writeFileBytes(TPath, Cut);
    auto J = CommitJournal::open(TPath, testIdentity(),
                                 CommitJournal::Options(), &Error);
    ASSERT_TRUE(J) << "truncation to " << Len << " bytes must recover or "
                   << "re-initialize, never fail: " << Error;
    EXPECT_TRUE(framesArePrefix(J->frames(), Reference))
        << "truncation to " << Len << " bytes surfaced a frame the "
        << "original run never wrote";
    if (J->frames().size() == Reference.size())
      ++FullPrefixes;
  }
  EXPECT_GT(FullPrefixes, 0u) << "the untruncated file must round-trip";
  ::unlink(TPath.c_str());
  ::unlink(Path.c_str());
}

TEST(TornTailTest, BitFlipAtEveryOffsetNeverAppliesACorruptFrame) {
  // Flip one bit at EVERY byte offset of a recorded journal. Every open
  // must either refuse cleanly (structured error) or surface a pure prefix
  // of the original frames — the CRC must catch every single-bit lie.
  const std::string Path = journalPath("flip_ref");
  const std::vector<JournalFrame> Reference = recordReferenceJournal(Path);
  const std::vector<uint8_t> Orig = readFileBytes(Path);
  ASSERT_FALSE(Orig.empty());
  const std::string FPath = journalPath("flip_case");
  std::string Error;
  size_t Refusals = 0, Recoveries = 0;
  for (size_t Off = 0; Off != Orig.size(); ++Off) {
    std::vector<uint8_t> Bad = Orig;
    Bad[Off] ^= static_cast<uint8_t>(1u << (Off % 8));
    writeFileBytes(FPath, Bad);
    Error.clear();
    auto J = CommitJournal::open(FPath, testIdentity(),
                                 CommitJournal::Options(), &Error);
    if (!J) {
      EXPECT_FALSE(Error.empty())
          << "a refused open must explain itself (offset " << Off << ")";
      ++Refusals;
      continue;
    }
    EXPECT_TRUE(framesArePrefix(J->frames(), Reference))
        << "bit flip at offset " << Off << " surfaced a corrupt frame";
    ++Recoveries;
  }
  EXPECT_GT(Refusals, 0u) << "magic/identity flips must refuse";
  EXPECT_GT(Recoveries, 0u) << "frame-area flips must recover a prefix";
  ::unlink(FPath.c_str());
  ::unlink(Path.c_str());
}

TEST(TornTailTest, TornTailResumeCompletesAndMatchesSequential) {
  // End-to-end torn-tail recovery: cut the journal at every FRAME
  // boundary (plus a mid-frame tear), then resume with fresh memory. The
  // replayed prefix plus resumed remainder must equal sequential output.
  const std::string Path = journalPath("resume_ref");
  const std::vector<JournalFrame> Reference = recordReferenceJournal(Path);
  const std::vector<uint8_t> Orig = readFileBytes(Path);
  const std::string RPath = journalPath("resume_case");
  std::string Error;
  // Frame boundaries: re-scan the file the same way open() does — magic,
  // len, crc, payload.
  std::vector<size_t> Cuts;
  {
    // Header: magic(8) + len(8) + crc(8) + payload + lease(24).
    const auto ReadU64 = [&Orig](size_t At) {
      uint64_t V;
      std::memcpy(&V, Orig.data() + At, sizeof(V));
      return V;
    };
    size_t Off = 24 + static_cast<size_t>(ReadU64(8)) + 24;
    Cuts.push_back(Off);
    while (Off + 24 <= Orig.size()) {
      const uint64_t PLen = ReadU64(Off + 8);
      Off += 24 + static_cast<size_t>(PLen);
      Cuts.push_back(Off);
      Cuts.push_back(Off + 11 <= Orig.size() ? Off + 11 : Off); // mid-frame
    }
  }
  for (size_t Len : Cuts) {
    SCOPED_TRACE("cut at " + std::to_string(Len));
    std::vector<uint8_t> Cut(Orig.begin(),
                             Orig.begin() + static_cast<ptrdiff_t>(
                                                std::min(Len, Orig.size())));
    writeFileBytes(RPath, Cut);
    auto J = CommitJournal::open(RPath, testIdentity(),
                                 CommitJournal::Options(), &Error);
    ASSERT_TRUE(J) << Error;
    EXPECT_TRUE(framesArePrefix(J->frames(), Reference));
    JournaledLoop L; // fresh initial state, as after a real restart
    const RunResult R = runJournaled(L, J.get());
    EXPECT_TRUE(L.sequentialImage())
        << "resume after tear at " << Len << " diverged from sequential";
    EXPECT_EQ(R.Status, RunStatus::Success);
  }
  ::unlink(RPath.c_str());
  ::unlink(Path.c_str());
}
