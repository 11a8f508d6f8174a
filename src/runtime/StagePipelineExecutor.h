//===- runtime/StagePipelineExecutor.h - PS-DSWP stage engine ---*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage-pipelined execution of a loop carrying a StagePlan: the sequential
/// stage runs IN THE PARENT (one open transaction per chunk, writing in
/// place with an undo log) while max(1, NumWorkers - 1) resident replica
/// children execute the parallel stage. Inter-stage tokens travel through
/// per-replica CommitRing queues as CRC-framed records with attempt-tagged
/// doorbells; replica chunks validate and commit through the unchanged
/// ConflictDetector / TxnWire commit-frame path, and chunks retire strictly in
/// order at the frontier.
///
/// Unlike chunked speculation, the stages are NOT speculative against each
/// other: the plan promises disjointness (see StagePipelinePlan.h), and the
/// engine verifies it — replica read/write sets against every
/// sequential-stage commit epoch, replica writes against the accumulated
/// sequential read footprint — treating any overlap as a plan-contract
/// violation that fails the run with a contained Crash (no retry; the
/// recovery ladder takes over). A wrong plan therefore costs performance,
/// never correctness.
///
/// Infrastructure faults (dead replica, rejected inter-stage or commit
/// record, fork failure) restart the world: every replica is killed, every
/// unretired sequential-stage transaction is rolled back newest-first, and
/// a fresh replica generation re-forks from committed state with a new
/// conflict-detector snapshot, making the rolled-back epochs invisible.
/// Each restart charges the indicted chunk's fault budget
/// (ChunkFaultRetryLimit), so sticky faults degrade through the ladder
/// exactly like a chunked child.
///
/// Clocks: the protocol executes for real, and Stats.RealTimeNs is its real
/// time. Stats.SimTimeNs — like the Lockstep engine's — is a modeled
/// pipeline makespan built from per-chunk measured stage times (sequential
/// lane, replica lanes, dispatch and commit costs from the CostModel). The
/// 10x-sequential deadline applies to the modeled clock, with a real-time
/// no-progress backstop so a hung replica still times out.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_STAGEPIPELINEEXECUTOR_H
#define ALTER_RUNTIME_STAGEPIPELINEEXECUTOR_H

#include "runtime/Executor.h"

namespace alter {

/// The stage-pipeline engine (see file comment). Requires a LoopSpec whose
/// Stage plan is valid(); returns a Crash result otherwise.
class StagePipelineExecutor : public Executor {
public:
  explicit StagePipelineExecutor(ExecutorConfig Config)
      : Config(std::move(Config)) {}

  RunResult run(const LoopSpec &Spec) override;

  void setAccumulatedSimNs(uint64_t Ns) override { AccumulatedSimNs = Ns; }

private:
  ExecutorConfig Config;
  uint64_t AccumulatedSimNs = 0;
};

} // namespace alter

#endif // ALTER_RUNTIME_STAGEPIPELINEEXECUTOR_H
