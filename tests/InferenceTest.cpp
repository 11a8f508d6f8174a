//===- tests/InferenceTest.cpp - Tests for the inference engine -----------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the §5 test-driven inference: outcome classification rules,
/// sandbox containment, candidate lowering, the bounded reduction search,
/// and the chunk-factor doubling search. The full Table 3 reproduction
/// (all 12 workloads x all candidates) lives in bench/table3_inference;
/// here a representative subset keeps test time bounded.
///
//===----------------------------------------------------------------------===//

#include "inference/InferenceEngine.h"
#include "inference/Outcome.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <unistd.h>

using namespace alter;

//===----------------------------------------------------------------------===
// Outcome classification
//===----------------------------------------------------------------------===

TEST(OutcomeTest, ClassificationRules) {
  RunResult R;
  EXPECT_EQ(classifyRun(R, /*OutputValid=*/true), InferenceOutcome::Success);
  EXPECT_EQ(classifyRun(R, /*OutputValid=*/false),
            InferenceOutcome::OutputMismatch);

  R.Status = RunStatus::Crash;
  EXPECT_EQ(classifyRun(R, true), InferenceOutcome::Crash);
  R.Status = RunStatus::Timeout;
  EXPECT_EQ(classifyRun(R, true), InferenceOutcome::Timeout);
  R.Status = RunStatus::Interrupted;
  EXPECT_EQ(classifyRun(R, true), InferenceOutcome::EnvFault);
  EXPECT_EQ(classifyRun(R, false), InferenceOutcome::EnvFault)
      << "an interrupted run's partial output is no evidence of mismatch";

  R.Status = RunStatus::Success;
  R.Stats.NumTransactions = 100;
  R.Stats.NumRetries = 51;
  EXPECT_EQ(classifyRun(R, true), InferenceOutcome::HighConflicts)
      << "more than 50% failed commits flags h.c. even with valid output";
  R.Stats.NumRetries = 50;
  EXPECT_EQ(classifyRun(R, true), InferenceOutcome::Success);
}

TEST(OutcomeTest, CrashBeatsEverything) {
  RunResult R;
  R.Status = RunStatus::Crash;
  R.Stats.NumTransactions = 10;
  R.Stats.NumRetries = 9;
  EXPECT_EQ(classifyRun(R, false), InferenceOutcome::Crash);
}

TEST(OutcomeTest, Names) {
  EXPECT_STREQ(inferenceOutcomeName(InferenceOutcome::Success), "success");
  EXPECT_STREQ(inferenceOutcomeName(InferenceOutcome::HighConflicts), "h.c.");
  EXPECT_STREQ(inferenceOutcomeName(InferenceOutcome::OutputMismatch),
               "mismatch");
}

//===----------------------------------------------------------------------===
// Sandbox
//===----------------------------------------------------------------------===

TEST(SandboxTest, CollectsOutputAndExitCode) {
  const SubprocessResult R = runInSandbox(
      [](int Fd) {
        const char Msg[] = "hello";
        writeAllOrDie(Fd, Msg, 5);
        _exit(0);
      },
      /*TimeoutSec=*/10);
  EXPECT_TRUE(R.Exited);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(std::string(R.Output.begin(), R.Output.end()), "hello");
}

TEST(SandboxTest, ReportsCrashSignal) {
  const SubprocessResult R = runInSandbox(
      [](int) {
        volatile int *Null = nullptr;
        *Null = 1; // deliberate segfault
        _exit(0);
      },
      /*TimeoutSec=*/10);
  EXPECT_FALSE(R.Exited);
  EXPECT_NE(R.Signal, 0);
  EXPECT_FALSE(R.TimedOut);
}

TEST(SandboxTest, EnforcesWallClock) {
  const SubprocessResult R = runInSandbox(
      [](int) {
        for (;;)
          ; // spin forever
      },
      /*TimeoutSec=*/1);
  EXPECT_TRUE(R.TimedOut);
}

//===----------------------------------------------------------------------===
// Candidate lowering
//===----------------------------------------------------------------------===

TEST(CandidateTest, LoweringFollowsTheorems) {
  std::unique_ptr<Workload> W = makeWorkload("kmeans");

  const RuntimeParams Tls =
      Candidate{Candidate::ModelKind::Tls, {}}.lower(*W, 16);
  EXPECT_EQ(Tls.Conflict, ConflictPolicy::RAW);
  EXPECT_EQ(Tls.CommitOrder, CommitOrderPolicy::InOrder);

  const RuntimeParams Ooo =
      Candidate{Candidate::ModelKind::OutOfOrder, {}}.lower(*W, 16);
  EXPECT_EQ(Ooo.Conflict, ConflictPolicy::RAW);
  EXPECT_EQ(Ooo.CommitOrder, CommitOrderPolicy::OutOfOrder);

  const RuntimeParams Stale =
      Candidate{Candidate::ModelKind::StaleReads, ReduceOp::Plus}.lower(*W,
                                                                        16);
  EXPECT_EQ(Stale.Conflict, ConflictPolicy::WAW);
  ASSERT_EQ(Stale.Reductions.size(), 1u)
      << "kmeans has one reducible variable (delta)";
  EXPECT_EQ(Stale.Reductions[0].Op, ReduceOp::Plus);
}

TEST(CandidateTest, DisplayNames) {
  EXPECT_EQ(Candidate({Candidate::ModelKind::Tls, {}}).str(), "TLS");
  EXPECT_EQ(Candidate({Candidate::ModelKind::StaleReads, ReduceOp::Max}).str(),
            "StaleReads+Red(max)");
}

//===----------------------------------------------------------------------===
// End-to-end inference on representative workloads
//===----------------------------------------------------------------------===

namespace {

InferenceConfig testConfig() {
  InferenceConfig Config;
  Config.SandboxTimeoutSec = 300;
  return Config;
}

} // namespace

TEST(InferenceTest, HmmIsCleanUnderEveryModel) {
  const InferenceEngine Engine(testConfig());
  const InferenceResult R = Engine.inferForWorkload("hmm");
  EXPECT_FALSE(R.LoopCarriedDep);
  EXPECT_EQ(R.Tls.Outcome, InferenceOutcome::Success);
  EXPECT_EQ(R.OutOfOrder.Outcome, InferenceOutcome::Success);
  EXPECT_EQ(R.StaleReads.Outcome, InferenceOutcome::Success);
  EXPECT_TRUE(R.ReductionSearch.empty())
      << "reduction search must not run when base models are valid";
  EXPECT_EQ(R.reductionSummary(), "N/A");
}

TEST(InferenceTest, GsSparseOnlyStaleReadsSucceeds) {
  const InferenceEngine Engine(testConfig());
  const InferenceResult R = Engine.inferForWorkload("gssparse");
  EXPECT_TRUE(R.LoopCarriedDep);
  EXPECT_EQ(R.StaleReads.Outcome, InferenceOutcome::Success);
  EXPECT_NE(R.Tls.Outcome, InferenceOutcome::Success);
  EXPECT_NE(R.OutOfOrder.Outcome, InferenceOutcome::Success);
  ASSERT_FALSE(R.validCandidates().empty());
  EXPECT_EQ(R.validCandidates()[0].Model, Candidate::ModelKind::StaleReads);
}

TEST(InferenceTest, KmeansNeedsThePlusReduction) {
  const InferenceEngine Engine(testConfig());
  const InferenceResult R = Engine.inferForWorkload("kmeans");
  EXPECT_TRUE(R.LoopCarriedDep);
  // Bare models all fail (Table 3: h.c. across the board)...
  EXPECT_NE(R.Tls.Outcome, InferenceOutcome::Success);
  EXPECT_NE(R.OutOfOrder.Outcome, InferenceOutcome::Success);
  EXPECT_NE(R.StaleReads.Outcome, InferenceOutcome::Success);
  // ...so the reduction search runs and finds +.
  ASSERT_FALSE(R.ReductionSearch.empty());
  bool PlusValid = false;
  bool MaxValid = false;
  for (const CandidateReport &Report : R.ReductionSearch) {
    if (Report.Outcome != InferenceOutcome::Success)
      continue;
    if (Report.Cand.ReductionOp == ReduceOp::Plus)
      PlusValid = true;
    if (Report.Cand.ReductionOp == ReduceOp::Max)
      MaxValid = true;
  }
  EXPECT_TRUE(PlusValid) << "the + reduction must validate (Figure 2)";
  EXPECT_FALSE(MaxValid)
      << "a max reduction on delta converges instantly -> wrong output";
  EXPECT_NE(R.reductionSummary(), "N/A");
}

TEST(InferenceTest, AggloClustCrashesUnderReadTracking) {
  const InferenceEngine Engine(testConfig());
  const InferenceResult R = Engine.inferForWorkload("aggloclust");
  EXPECT_TRUE(R.LoopCarriedDep);
  EXPECT_EQ(R.Tls.Outcome, InferenceOutcome::Crash);
  EXPECT_EQ(R.OutOfOrder.Outcome, InferenceOutcome::Crash);
  EXPECT_EQ(R.StaleReads.Outcome, InferenceOutcome::Success);
}

TEST(InferenceTest, LabyrinthFailsEverything) {
  const InferenceEngine Engine(testConfig());
  const InferenceResult R = Engine.inferForWorkload("labyrinth");
  EXPECT_TRUE(R.LoopCarriedDep);
  EXPECT_NE(R.Tls.Outcome, InferenceOutcome::Success);
  EXPECT_NE(R.OutOfOrder.Outcome, InferenceOutcome::Success);
  EXPECT_NE(R.StaleReads.Outcome, InferenceOutcome::Success);
  EXPECT_TRUE(R.validCandidates().empty());
}

TEST(InferenceTest, ChunkSearchFindsAReasonableFactor) {
  std::unique_ptr<Workload> W = makeWorkload("gssparse");
  const Candidate Stale{Candidate::ModelKind::StaleReads, {}};
  const int Cf = searchChunkFactor(*W, Stale, /*NumWorkers=*/4,
                                   /*InputIndex=*/0, /*MaxChunkFactor=*/256);
  EXPECT_GE(Cf, 1);
  EXPECT_LE(Cf, 256);
  // The search must actually improve on cf=1 for this loop: one iteration
  // per transaction drowns in per-round synchronization.
  W->setUp(0);
  const RunResult At1 = W->runLockstep(Stale.lower(*W, 1), 4);
  W->setUp(0);
  const RunResult AtBest = W->runLockstep(Stale.lower(*W, Cf), 4);
  EXPECT_LE(AtBest.Stats.SimTimeNs, At1.Stats.SimTimeNs);
}
