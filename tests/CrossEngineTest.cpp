//===- tests/CrossEngineTest.cpp - ForkJoin vs Lockstep equivalence -------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two parallel engines implement one deterministic protocol (§4.3):
/// the in-process lock-step engine with undo/redo isolation, and the
/// process-based fork-join engine with real COW isolation and pipe-shipped
/// commits. For every workload and a grid of configurations, both must
/// produce byte-identical outputs and identical conflict schedules — the
/// strongest integration check the repository has, since it exercises the
/// allocator's cross-process guarantees, write-log serialization, and
/// reduction shipping on real algorithm state.
///
//===----------------------------------------------------------------------===//

#include "PropertyTest.h"

#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace alter;

namespace {

/// Every workload but Labyrinth, for which the paper found no annotation.
bool hasPaperAnnotation(const std::string &Name) {
  return makeWorkload(Name)->paperAnnotation().has_value();
}

/// TLS serializes heavily on most loops; these run it in reasonable time.
bool isCheapUnderTls(const std::string &Name) {
  return Name == "barneshut" || Name == "hmm" || Name == "genome";
}

class CrossEngine : public PropertyTest<std::string> {
public:
  static constexpr const char *Suite = "Paper/CrossEngine";
  static std::vector<std::string> grid() { return allWorkloadNames(); }
  static std::string name(const std::string &Name) { return Name; }
};

} // namespace

ALTER_PROPERTY(CrossEngine, ForkJoinMatchesLockstepUnderPaperAnnotation,
               hasPaperAnnotation) {
  auto W = makeWorkload(GetParam());
  const std::optional<Annotation> A = W->paperAnnotation();
  ASSERT_TRUE(A.has_value());

  // FFT's per-element instrumentation makes fork-shipping every butterfly
  // write log viable but slow; cap the heavier loops to the test input.
  W->setUp(0);
  const RuntimeParams Params = W->resolveAnnotation(*A);
  const RunResult Lockstep = W->runLockstep(Params, /*NumWorkers=*/3);
  ASSERT_TRUE(Lockstep.succeeded()) << Lockstep.Detail;
  const std::vector<double> LockstepSig = W->outputSignature();

  auto W2 = makeWorkload(GetParam());
  W2->setUp(0);
  const RunResult ForkJoin = W2->runForkJoin(Params, /*NumWorkers=*/3);
  ASSERT_TRUE(ForkJoin.succeeded()) << ForkJoin.Detail;

  EXPECT_EQ(W2->outputSignature(), LockstepSig)
      << "engines must agree bit-for-bit";
  EXPECT_EQ(ForkJoin.Stats.NumTransactions, Lockstep.Stats.NumTransactions);
  EXPECT_EQ(ForkJoin.Stats.NumRetries, Lockstep.Stats.NumRetries)
      << "identical conflict schedules (§4.3)";
  // The same transactions fold into RunStats::countTransaction, ForkJoin's
  // from the commit frames and Lockstep's in process. The set-size sums
  // are sums of whole numbers, so they compare exactly in any order.
  const RunStats &F = ForkJoin.Stats, &L = Lockstep.Stats;
  EXPECT_EQ(F.InstrReadCalls, L.InstrReadCalls);
  EXPECT_EQ(F.InstrWriteCalls, L.InstrWriteCalls);
  EXPECT_EQ(F.BytesRead, L.BytesRead);
  EXPECT_EQ(F.BytesWritten, L.BytesWritten);
  EXPECT_EQ(F.ReadSetWords.count(), L.ReadSetWords.count());
  EXPECT_EQ(F.ReadSetWords.sum(), L.ReadSetWords.sum());
  EXPECT_EQ(F.WriteSetWords.count(), L.WriteSetWords.count());
  EXPECT_EQ(F.WriteSetWords.sum(), L.WriteSetWords.sum());
  EXPECT_DOUBLE_EQ(F.ReadSetWords.mean(), L.ReadSetWords.mean());
  EXPECT_DOUBLE_EQ(F.WriteSetWords.mean(), L.WriteSetWords.mean());
  EXPECT_EQ(ForkJoin.CommitOrder, Lockstep.CommitOrder)
      << "identical commit orders";
}

ALTER_PROPERTY(CrossEngine, ForkJoinMatchesLockstepUnderTls, isCheapUnderTls) {
  // TLS (Theorem 4.3) exercises InOrder cascades across both engines.
  const std::string Name = GetParam();
  auto W = makeWorkload(Name);
  W->setUp(0);
  const RuntimeParams Params =
      paramsForSequentialSpeculation(W->defaultChunkFactor());
  const RunResult Lockstep = W->runLockstep(Params, /*NumWorkers=*/2);
  ASSERT_TRUE(Lockstep.succeeded());
  const std::vector<double> LockstepSig = W->outputSignature();

  auto W2 = makeWorkload(Name);
  W2->setUp(0);
  const RunResult ForkJoin = W2->runForkJoin(Params, /*NumWorkers=*/2);
  ASSERT_TRUE(ForkJoin.succeeded());
  EXPECT_EQ(W2->outputSignature(), LockstepSig);
  EXPECT_EQ(ForkJoin.Stats.NumRetries, Lockstep.Stats.NumRetries);
}
