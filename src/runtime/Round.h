//===- runtime/Round.h - The lock-step round barrier ------------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Step 2c of the paper's lock-step protocol (§4.1, §4.3), shared by both
/// round engines. LockstepExecutor executes a round's chunks in process and
/// ForkJoinExecutor in forked children, but both retire the round through
/// retireRound, so their conflict schedules and commit orders agree by
/// construction (CrossEngineTest).
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_ROUND_H
#define ALTER_RUNTIME_ROUND_H

#include "runtime/ConflictDetector.h"
#include "runtime/Executor.h"
#include "runtime/TraceSink.h"

#include <deque>
#include <functional>
#include <vector>

namespace alter {

/// One worker's transaction at the round barrier.
struct RoundTxn {
  int64_t Chunk = -1;
  /// The chunk's access sets; null when its slot faulted and produced no
  /// report, which fails it like a conflict.
  const AccessSet *Reads = nullptr;
  const AccessSet *Writes = nullptr;
  /// The modeled cost: the engine fills WorkNs, BytesTouched and
  /// CommitBytes; retireRound fills CheckWords and Committed.
  TxnCost Cost;
};

/// Retires one round: validates \p Round in ascending worker order against
/// the round's earlier commits, and commits each survivor — counting it,
/// recording its write set, then calling \p Commit(W) to apply it. Under
/// InOrder the first failure (a conflict or a faulted slot) fails every
/// younger slot without a check, so commits retire in program order. A
/// faulted slot first calls \p Fault(W); when that returns false the round
/// stops there and retireRound returns false, leaving the run to end.
/// Failed chunks re-enter the front of \p Pending in program order, ahead
/// of younger chunks. Finally advances the modeled clock by the round's
/// cost and emits RoundBarrier.
bool retireRound(std::vector<RoundTxn> &Round, ConflictDetector &Detector,
                 TraceSink &Sink, const ExecutorConfig &Config,
                 RunResult &Result, std::deque<int64_t> &Pending,
                 const std::function<void(unsigned)> &Commit,
                 const std::function<bool(unsigned)> &Fault = nullptr);

} // namespace alter

#endif // ALTER_RUNTIME_ROUND_H
