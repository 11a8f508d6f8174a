//===- tests/PolicyMatrixTest.cpp - Property sweeps over the runtime ------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized property sweeps over the full configuration space the
/// runtime exposes: ConflictPolicy x CommitOrderPolicy x worker count x
/// chunk factor (the paper explores four named points of this lattice;
/// §4.2 leaves "other combinations" as future work — these sweeps pin
/// down the invariants every combination must satisfy):
///
///  P1. Determinism: identical outputs and identical conflict schedules on
///      repeated runs (§4.3), for every configuration.
///  P2. Commit-order serializability: under RAW and FULL the final state
///      equals a serial replay of the chunks in commit order.
///  P3. Snapshot isolation: under WAW the write sets of transactions that
///      committed in the same round are pairwise disjoint.
///  P4. In-order retirement: under InOrder the commit order is exactly
///      ascending chunk order, regardless of conflicts.
///  P5. Progress: every configuration terminates with all chunks committed
///      exactly once.
///  P6. Reduction exactness: an enabled + reduction matches the sequential
///      total under every policy/worker/chunk combination.
///
//===----------------------------------------------------------------------===//

#include "PropertyTest.h"

#include "runtime/LockstepExecutor.h"
#include "runtime/TxnContext.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>
#include <vector>

using namespace alter;

namespace {

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
      for (unsigned Workers : {1u, 3u, 4u})
        for (int Cf : {1, 4, 16})
          Params.push_back({Conflict, Order, Workers, Cf});
  return Params;
}

/// A contended mixed loop: neighbor reads, own writes, a hot shared cell,
/// enough structure to exercise every conflict definition.
struct MixedLoop {
  static constexpr int64_t N = 96;
  std::vector<int64_t> Data;
  int64_t Hot = 0;

  MixedLoop() : Data(N + 1, 1) {}

  LoopSpec spec() {
    LoopSpec S;
    S.Name = "matrix.mixed";
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

class PolicyMatrix : public PropertyTest<MatrixParam> {
public:
  static constexpr const char *Suite = "Lattice/PolicyMatrix";
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

} // namespace

// P1 + P5: determinism and exactly-once commits.
ALTER_PROPERTY(PolicyMatrix, DeterministicAndCommitsEachChunkOnce,
               everywhere) {
  std::vector<int64_t> FirstState;
  std::vector<int64_t> FirstOrder;
  uint64_t FirstRetries = 0;
  for (int Trial = 0; Trial != 2; ++Trial) {
    MixedLoop Loop;
    LockstepExecutor Exec(config());
    const RunResult R = Exec.run(Loop.spec());
    ASSERT_TRUE(R.succeeded());

    const int64_t NumChunks =
        (MixedLoop::N + GetParam().Cf - 1) / GetParam().Cf;
    ASSERT_EQ(R.CommitOrder.size(), static_cast<size_t>(NumChunks));
    std::set<int64_t> Unique(R.CommitOrder.begin(), R.CommitOrder.end());
    EXPECT_EQ(Unique.size(), R.CommitOrder.size())
        << "every chunk commits exactly once";
    EXPECT_EQ(R.Stats.NumCommitted, static_cast<uint64_t>(NumChunks));

    if (Trial == 0) {
      FirstState = Loop.state();
      FirstOrder = R.CommitOrder;
      FirstRetries = R.Stats.NumRetries;
      continue;
    }
    EXPECT_EQ(Loop.state(), FirstState) << "P1: deterministic output";
    EXPECT_EQ(R.CommitOrder, FirstOrder) << "P1: deterministic schedule";
    EXPECT_EQ(R.Stats.NumRetries, FirstRetries)
        << "P1: deterministic conflicts";
  }
}

// P2: conflict serializability under read-tracking policies (the only ones
// that promise it).
ALTER_PROPERTY(PolicyMatrix, ReadTrackingPoliciesAreCommitOrderSerializable,
               tracksReads) {
  MixedLoop Parallel;
  LockstepExecutor Exec(config());
  const RunResult R = Exec.run(Parallel.spec());
  ASSERT_TRUE(R.succeeded());

  // Serial replay in commit order.
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
      << "P2: execution must equal its commit-order serialization";
}

// P4: in-order retirement.
ALTER_PROPERTY(PolicyMatrix, InOrderRetiresInProgramOrder, isInOrder) {
  MixedLoop Loop;
  LockstepExecutor Exec(config());
  const RunResult R = Exec.run(Loop.spec());
  ASSERT_TRUE(R.succeeded());
  EXPECT_TRUE(std::is_sorted(R.CommitOrder.begin(), R.CommitOrder.end()))
      << "P4: InOrder must retire chunks in ascending program order";
}

// P4b: InOrder + RAW is Theorem 4.3 — sequential semantics.
ALTER_PROPERTY(PolicyMatrix, TlsPointMatchesSequential, isTlsCorner) {
  MixedLoop Parallel;
  LockstepExecutor Exec(config());
  ASSERT_TRUE(Exec.run(Parallel.spec()).succeeded());

  MixedLoop Seq;
  LoopSpec Spec = Seq.spec();
  TxnContext Ctx(ContextMode::Passthrough, nullptr, &Spec, nullptr, 0);
  for (int64_t I = 0; I != MixedLoop::N; ++I)
    Spec.Body(Ctx, I);
  EXPECT_EQ(Parallel.state(), Seq.state())
      << "Theorem 4.3: RAW + InOrder equals sequential semantics";
}

// P6: reductions are exact under every configuration.
ALTER_PROPERTY(PolicyMatrix, PlusReductionIsExactEverywhere, everywhere) {
  std::vector<double> Values(257);
  for (size_t I = 0; I != Values.size(); ++I)
    Values[I] = static_cast<double>((I * 31) % 97) + 0.25;
  double Sum = 0.0;

  LoopSpec Spec;
  Spec.NumIterations = static_cast<int64_t>(Values.size());
  Spec.Reductions.push_back({"sum", &Sum, ScalarKind::F64});
  Spec.Body = [&Values](TxnContext &Ctx, int64_t I) {
    Ctx.redUpdateF(0, ReduceOp::Plus, Values[static_cast<size_t>(I)]);
  };

  ExecutorConfig Config = config();
  Config.Params.Reductions.push_back({0, ReduceOp::Plus});
  LockstepExecutor Exec(Config);
  ASSERT_TRUE(Exec.run(Spec).succeeded());
  EXPECT_DOUBLE_EQ(Sum, std::accumulate(Values.begin(), Values.end(), 0.0))
      << "P6: reductions commute with every policy";
}

//===----------------------------------------------------------------------===
// P3: snapshot isolation — needs commit-round bookkeeping, so it runs as a
// focused test over the WAW configurations rather than via the fixture.
//===----------------------------------------------------------------------===

TEST(SnapshotIsolationTest, SameRoundCommittersHaveDisjointWriteSets) {
  // All iterations increment one of 2 hot cells: heavy WAW contention
  // (every round of >2 workers has at least two chunks hitting the same
  // cell). If two same-round committers ever overlapped, the later one
  // would clobber the earlier's increment; exactness of the final counts
  // across retries is the observable.
  for (unsigned Workers : {3u, 4u, 7u}) {
    std::vector<int64_t> Cells(2, 0);
    LoopSpec Spec;
    Spec.NumIterations = 64;
    Spec.Body = [&Cells](TxnContext &Ctx, int64_t I) {
      int64_t *Cell = &Cells[static_cast<size_t>(I % 2)];
      Ctx.store(Cell, Ctx.load(Cell) + 1);
    };
    ExecutorConfig Config;
    Config.NumWorkers = Workers;
    Config.Params.Conflict = ConflictPolicy::WAW;
    Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
    Config.Params.ChunkFactor = 1;
    LockstepExecutor Exec(Config);
    const RunResult R = Exec.run(Spec);
    ASSERT_TRUE(R.succeeded());
    for (int64_t V : Cells)
      EXPECT_EQ(V, 32)
          << "lost update: snapshot isolation was violated at " << Workers
          << " workers";
    EXPECT_GT(R.Stats.NumRetries, 0u) << "the cells must contend";
  }
}
