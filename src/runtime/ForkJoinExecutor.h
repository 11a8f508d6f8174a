//===- runtime/ForkJoinExecutor.h - Process-based fork-join engine -*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's deterministic process-based fork–join engine (§4.1,
/// Figure 4), realized with POSIX primitives instead of Win32:
///
///  - each round forks N child processes whose address spaces are
///    copy-on-write snapshots of the committed state (fork() supplies the
///    paper's COW section mappings);
///  - each child executes one chunk in full isolation, tracking read/write
///    sets, then ships its write log, access sets, reduction deltas, and
///    arena cursor to the parent and exits — through its slot's
///    shared-memory commit ring when forked from the warm template (ring
///    transport), or over a private pipe when forked cold from the parent
///    (pipe transport, or the ring's fallback);
///  - the parent joins all children and retires the round through
///    retireRound (runtime/Round.h), the same barrier step LockstepExecutor
///    uses: it validates in deterministic (ascending) order, applies
///    committed write logs verbatim — sound because the ALTER allocator
///    guarantees processes never share fresh virtual addresses — and
///    re-queues failed chunks;
///  - the next round's fork re-synchronizes every worker with the committed
///    state (§4.1 step 2d).
///
/// Launching, reaping, decoding and commit application are the fork
/// engines' shared mechanism (DispatchCore); this engine is the round
/// policy on top of it. A child that dies of a signal or exits abnormally
/// is retried like a failed validation, and surfaces as RunStatus::Crash
/// once it exhausts the chunk's fault budget — exactly the observable the
/// paper's inference engine classifies (§5).
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_FORKJOINEXECUTOR_H
#define ALTER_RUNTIME_FORKJOINEXECUTOR_H

#include "runtime/Executor.h"
#include "support/Subprocess.h"

namespace alter {

/// Process-based implementation of the ALTER protocol.
class ForkJoinExecutor : public Executor {
public:
  explicit ForkJoinExecutor(ExecutorConfig Config);

  RunResult run(const LoopSpec &Spec) override;

  ChildRusage release() override;

  /// The configuration in force.
  const ExecutorConfig &config() const { return Config; }

private:
  ExecutorConfig Config;
  ParkedChild Parked; // the last successful run's retired template
};

} // namespace alter

#endif // ALTER_RUNTIME_FORKJOINEXECUTOR_H
