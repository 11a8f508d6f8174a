//===- runtime/LockstepExecutor.h - Threaded lock-step engine ---*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process engine. It runs the paper's lock-step protocol exactly
/// (§4.1, steps 2a–2d; §4.3):
///
///   repeat until no chunks remain:
///     - each of the N workers picks up the next pending chunk (ascending
///       program order);
///     - the chunks execute concurrently on N threads — the calling thread
///       runs slot 0, N−1 helper threads the others — each in its own
///       buffered-write context: stores land in the worker's write log, so
///       every chunk sees only the committed snapshot and no chunk touches
///       committed memory before the barrier;
///     - at the barrier, the calling thread validates the chunks one after
///       another in deterministic (ascending) order against the
///       ConflictPolicy and either commits them (apply write log +
///       reduction merges) or marks them for re-execution (retireRound,
///       shared with ForkJoinExecutor);
///     - the modeled parallel clock advances by the round's cost
///       (CostModel), fed with each chunk's thread CPU time, so the model
///       still prices N workers when N exceeds the host's cores.
///
/// Under CommitOrderPolicy::InOrder the first failed validation also aborts
/// all program-order-later chunks of the round, so commits retire in
/// program order (TLS, Theorem 4.3).
///
/// The outcome depends only on the round shape, never on thread timing.
/// Only the calling thread touches the trace sink, the trace clock, the
/// metrics registry and the run's stats, all after the barrier. Helpers
/// are created at the first round with more than one chunk and joined when
/// the executor is destroyed; between rounds they yield their core for a
/// bounded spin, then block in the kernel.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_LOCKSTEPEXECUTOR_H
#define ALTER_RUNTIME_LOCKSTEPEXECUTOR_H

#include "runtime/Executor.h"

#include <memory>

namespace alter {

/// In-process implementation of the ALTER protocol: a round's chunks run
/// on threads, the calling thread retires the round.
class LockstepExecutor : public Executor {
public:
  explicit LockstepExecutor(ExecutorConfig Config);
  ~LockstepExecutor() override;

  RunResult run(const LoopSpec &Spec) override;

  /// The configuration in force.
  const ExecutorConfig &config() const { return Config; }

  /// Adjusts the accumulated-time budget shared across run() calls of an
  /// outer convergence loop (see ExecutorLoopRunner).
  void setAccumulatedSimNs(uint64_t Ns) override { AccumulatedSimNs = Ns; }
  uint64_t accumulatedSimNs() const { return AccumulatedSimNs; }

private:
  class HelperThreads;

  ExecutorConfig Config;
  uint64_t AccumulatedSimNs = 0;
  /// Null until the first round with more than one chunk.
  std::unique_ptr<HelperThreads> Helpers;
};

} // namespace alter

#endif // ALTER_RUNTIME_LOCKSTEPEXECUTOR_H
