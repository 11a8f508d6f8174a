//===- tests/FuzzLoopTest.cpp - Randomized loop invariants ----------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized (but seeded, hence reproducible) loops stress the runtime's
/// invariants in corners no hand-written workload reaches: random access
/// patterns, random mixes of loads/stores/storeInit/ranges/reductions,
/// random policies and worker counts. For every generated program:
///
///  - RAW/FULL executions must equal their commit-order serial replay;
///  - InOrder + RAW must equal sequential execution;
///  - executions must be deterministic;
///  - a + reduction must match the sequential total.
///
/// 24 seeds x the policy grid ≈ a few hundred generated programs.
///
//===----------------------------------------------------------------------===//

#include "PropertyTest.h"

#include "runtime/LockstepExecutor.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace alter;

namespace {

/// A randomly generated loop over a small shared array. The body is a
/// deterministic function of (seed, iteration), so the same program can be
/// re-instantiated for replay comparisons.
class FuzzProgram {
public:
  FuzzProgram(uint64_t Seed, int64_t Iterations, size_t Cells)
      : Seed(Seed), Iterations(Iterations), Data(Cells, 1), Sum(0.0) {}

  LoopSpec spec() {
    LoopSpec S;
    S.Name = "fuzz";
    S.NumIterations = Iterations;
    S.Reductions.push_back({"sum", &Sum, ScalarKind::F64});
    S.Body = [this](TxnContext &Ctx, int64_t I) { body(Ctx, I); };
    return S;
  }

  std::vector<int64_t> state() const {
    std::vector<int64_t> S = Data;
    S.push_back(static_cast<int64_t>(Sum * 1024.0));
    return S;
  }

  void runChunkSerially(int64_t Chunk, int Cf) {
    LoopSpec S = spec();
    TxnContext Ctx(ContextMode::Passthrough, nullptr, &S, nullptr, 0);
    const int64_t First = Chunk * Cf;
    const int64_t Last = std::min<int64_t>(First + Cf, Iterations);
    for (int64_t I = First; I != Last; ++I)
      body(Ctx, I);
  }

  void runSequential() {
    LoopSpec S = spec();
    TxnContext Ctx(ContextMode::Passthrough, nullptr, &S, nullptr, 0);
    for (int64_t I = 0; I != Iterations; ++I)
      body(Ctx, I);
  }

private:
  /// Five random shared accesses per iteration, drawn from a per-iteration
  /// PRNG stream: loads, read-modify-writes, fresh-ish stores, small range
  /// reads, and reduction updates.
  void body(TxnContext &Ctx, int64_t I) {
    Xoshiro256StarStar Rng(Seed * 0x9E3779B97F4A7C15ULL +
                           static_cast<uint64_t>(I));
    int64_t Acc = I;
    for (int Op = 0; Op != 5; ++Op) {
      const size_t Cell = Rng.nextBounded(Data.size());
      switch (Rng.nextBounded(5)) {
      case 0: { // pure load
        Acc += Ctx.load(&Data[Cell]);
        break;
      }
      case 1: { // read-modify-write
        const int64_t V = Ctx.load(&Data[Cell]);
        Ctx.store(&Data[Cell], V + Acc % 7 + 1);
        break;
      }
      case 2: { // overwrite
        Ctx.store(&Data[Cell], Acc ^ static_cast<int64_t>(Cell));
        break;
      }
      case 3: { // small range read
        const size_t First = std::min(Cell, Data.size() - 4);
        int64_t Buf[4];
        Ctx.readRange(&Data[First], 4, Buf);
        Acc += Buf[0] + Buf[3];
        break;
      }
      case 4: { // reduction update (sum += ...)
        Ctx.redUpdateF(0, ReduceOp::Plus,
                       static_cast<double>(Acc % 16));
        break;
      }
      }
    }
  }

  uint64_t Seed;
  int64_t Iterations;
  std::vector<int64_t> Data;
  double Sum;
};

struct FuzzParam {
  uint64_t Seed;
  ConflictPolicy Conflict;
  std::string name() const {
    return std::string("Seed") + std::to_string(Seed) +
           conflictPolicyName(Conflict);
  }
};

std::vector<FuzzParam> fuzzGrid() {
  std::vector<FuzzParam> Params;
  for (uint64_t Seed = 1; Seed <= 24; ++Seed)
    for (ConflictPolicy Conflict :
         {ConflictPolicy::FULL, ConflictPolicy::RAW, ConflictPolicy::WAW})
      Params.push_back({Seed, Conflict});
  return Params;
}

bool everywhere(const FuzzParam &) { return true; }

/// Serializability and Theorem 4.3 need read tracking, which snapshot
/// isolation (WAW) does not do.
bool tracksReads(const FuzzParam &P) {
  return P.Conflict != ConflictPolicy::WAW;
}

class FuzzLoop : public PropertyTest<FuzzParam> {
public:
  static constexpr const char *Suite = "Seeds/FuzzLoop";
  static std::vector<FuzzParam> grid() { return fuzzGrid(); }
  static std::string name(const FuzzParam &P) { return P.name(); }

protected:
  static constexpr int64_t Iterations = 128;
  static constexpr size_t Cells = 24;
  static constexpr int Cf = 4;

  ExecutorConfig config(CommitOrderPolicy Order, bool EnableReduction) const {
    ExecutorConfig Config;
    Config.NumWorkers = 3 + GetParam().Seed % 3; // 3..5 workers
    Config.Params.Conflict = GetParam().Conflict;
    Config.Params.CommitOrder = Order;
    Config.Params.ChunkFactor = Cf;
    if (EnableReduction)
      Config.Params.Reductions.push_back({0, ReduceOp::Plus});
    return Config;
  }
};

} // namespace

ALTER_PROPERTY(FuzzLoop, CommitOrderReplayMatches, tracksReads) {
  FuzzProgram Parallel(GetParam().Seed, Iterations, Cells);
  LockstepExecutor Exec(config(CommitOrderPolicy::OutOfOrder,
                               /*EnableReduction=*/true));
  const RunResult R = Exec.run(Parallel.spec());
  ASSERT_TRUE(R.succeeded());

  FuzzProgram Replay(GetParam().Seed, Iterations, Cells);
  for (int64_t Chunk : R.CommitOrder)
    Replay.runChunkSerially(Chunk, Cf);
  // The reduction is order-insensitive only up to fp rounding of the
  // integral operands used here, so exact equality is required and holds.
  EXPECT_EQ(Parallel.state(), Replay.state());
}

ALTER_PROPERTY(FuzzLoop, TlsMatchesSequential, tracksReads) {
  FuzzProgram Parallel(GetParam().Seed, Iterations, Cells);
  // TLS carries no reductions (Theorem 4.3): the reduction slot stays
  // disabled and its updates run as ordinary conflicting accesses.
  LockstepExecutor Exec(config(CommitOrderPolicy::InOrder,
                               /*EnableReduction=*/false));
  const RunResult R = Exec.run(Parallel.spec());
  ASSERT_TRUE(R.succeeded());

  FuzzProgram Seq(GetParam().Seed, Iterations, Cells);
  Seq.runSequential();
  EXPECT_EQ(Parallel.state(), Seq.state());
}

ALTER_PROPERTY(FuzzLoop, DeterministicAcrossRuns, everywhere) {
  std::vector<int64_t> First;
  uint64_t FirstRetries = 0;
  for (int Trial = 0; Trial != 2; ++Trial) {
    FuzzProgram Program(GetParam().Seed, Iterations, Cells);
    LockstepExecutor Exec(config(CommitOrderPolicy::OutOfOrder,
                                 /*EnableReduction=*/true));
    const RunResult R = Exec.run(Program.spec());
    ASSERT_TRUE(R.succeeded());
    if (Trial == 0) {
      First = Program.state();
      FirstRetries = R.Stats.NumRetries;
      continue;
    }
    EXPECT_EQ(Program.state(), First);
    EXPECT_EQ(R.Stats.NumRetries, FirstRetries);
  }
}
