//===- runtime/PipelineExecutor.h - Event-driven pipelined engine -*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipelined successor to ForkJoinExecutor's round barrier: a
/// poll(2)-driven parent keeps NumWorkers forked children in flight
/// continuously. The moment any child's commit message arrives, the parent
/// validates it, commits or requeues it, and immediately forks the next
/// pending chunk into the freed slot — no worker ever idles behind a
/// straggler chunk of its "round", because there are no rounds.
///
/// Semantics (relative to §4.2/§4.3 and Theorems 4.1-4.4):
///
///  - Each child is forked from the parent, so its COW snapshot reflects
///    every commit applied so far. The transaction records the commit
///    sequence at fork ("snapshot sequence") and validates against exactly
///    the write sets of transactions that committed AFTER that point
///    (ConflictDetector's epoch interface). This generalizes the round
///    discipline — a round-mate is just a transaction whose snapshot you
///    share — and preserves each theorem's guarantee:
///      * RAW/FULL: a committing transaction's reads are unaffected by
///        every commit it missed, so the final state equals the serial
///        replay of chunks in commit order (conflict serializability).
///      * WAW: committed write sets since the snapshot are disjoint from
///        this transaction's writes (snapshot isolation / StaleReads).
///      * NONE: always commit.
///  - CommitOrderPolicy::InOrder retires chunks in ascending order: an
///    arrived report for chunk c buffers until every chunk < c has
///    committed, then validates against the commits it missed. Combined
///    with RAW this is Theorem 4.3's sequential semantics. Because only
///    the oldest unretired chunk can commit, its retry (forked fresh, with
///    nothing else committing) always succeeds — progress is guaranteed.
///  - CommitOrderPolicy::OutOfOrder retires on arrival. Arrival order is
///    timing-dependent, so the schedule (unlike the barriered engines') is
///    not deterministic across runs — but every final state is equivalent
///    to a serial execution in the reported CommitOrder, which is what the
///    theorems promise. A starvation guard drains the pipeline and runs a
///    repeatedly-conflicting chunk solo, guaranteeing progress.
///
/// Launching, reaping, decoding and commit application are the fork
/// engines' shared mechanism (DispatchCore); this engine is the
/// continuous-feed policy on top of it: epoch validation, the InOrder
/// buffer, the starvation guard, and resident-child catch-up. A child that
/// dies of a signal or exits abnormally is retried until its chunk exhausts
/// the fault budget, and one that trips a resource cap ends the run; either
/// way the run surfaces as RunStatus::Crash, with every remaining
/// in-flight child killed and reaped before returning.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_PIPELINEEXECUTOR_H
#define ALTER_RUNTIME_PIPELINEEXECUTOR_H

#include "runtime/Executor.h"
#include "support/Subprocess.h"

namespace alter {

/// Process-based pipelined implementation of the ALTER protocol.
class PipelineExecutor : public Executor {
public:
  explicit PipelineExecutor(ExecutorConfig Config);

  RunResult run(const LoopSpec &Spec) override;

  ChildRusage release() override;

  /// The configuration in force.
  const ExecutorConfig &config() const { return Config; }

  /// Adjusts the accumulated-time budget shared across run() calls of an
  /// outer convergence loop (see ExecutorLoopRunner). The pipelined engine
  /// runs on real parallelism, so its "modeled" clock is its real clock.
  void setAccumulatedSimNs(uint64_t Ns) override { AccumulatedSimNs = Ns; }

  /// Consecutive validation failures of one chunk that trigger the
  /// drain-and-run-solo starvation guard.
  static constexpr unsigned StarvationRetryLimit = 4;

private:
  ExecutorConfig Config;
  uint64_t AccumulatedSimNs = 0;
  ParkedChild Parked; // the last successful run's retired template
};

} // namespace alter

#endif // ALTER_RUNTIME_PIPELINEEXECUTOR_H
