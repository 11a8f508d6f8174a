//===- runtime/CostModel.h - Lock-step parallel cost model ------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost model that stands in for the paper's 8-core Xeon testbed (see
/// DESIGN.md §2). The LockstepExecutor runs ALTER's real protocol —
/// identical chunk scheduling, conflict detection, retries, and commits —
/// and this model converts the per-transaction measurements into the
/// wall-clock an actual P-worker lock-step execution would exhibit:
///
///   RoundNs = max(compute, bandwidth) + Σ commit + barrier + P·resync
///
///   compute   = max over workers of their chunk's measured body time
///   bandwidth = (bytes touched by all chunks in the round) / BW
///               (memory-bound loops plateau, §7.2's GSdense/GSsparse)
///   commit    = serialized: log-apply bytes + conflict-check words
///   barrier   = per-round join/resync constant (the paper's lock-step
///               synchronization and COW resynchronization)
///
/// Constants are calibrated at startup from micro-measurements on the host
/// so the relative magnitudes (compute vs copy vs sync) stay realistic.
/// The stage pipeline builds its own modeled clock from the same constants
/// (StagePipelineExecutor). The model prices runs; it picks no schedule.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_COSTMODEL_H
#define ALTER_RUNTIME_COSTMODEL_H

#include <cstdint>
#include <vector>

namespace alter {

/// Per-transaction inputs to the round cost computation.
struct TxnCost {
  uint64_t WorkNs = 0;       ///< measured body execution time
  uint64_t CommitBytes = 0;  ///< write-log payload applied on commit
  uint64_t CheckWords = 0;   ///< words compared during validation
  uint64_t BytesTouched = 0; ///< genuine DRAM traffic (noteMemoryTraffic)
  bool Committed = false;    ///< aborted txns skip the log-apply cost
};

/// Calibrated cost constants and the round aggregation function.
struct CostModel {
  /// ns per byte of write-log application (memcpy into committed state).
  double CommitNsPerByte = 0.05;
  /// ns per word of conflict checking (one hot-cache hash probe).
  double CheckNsPerWord = 1.0;
  /// Fixed per-round synchronization cost (join + commit ordering). The
  /// constants are scaled to this repo's inputs, which are roughly two
  /// orders of magnitude smaller than the paper's (see EXPERIMENTS.md);
  /// keeping sync costs proportionally smaller preserves the paper's
  /// round-work : synchronization ratio.
  double BarrierNs = 2000.0;
  /// Per-worker per-round resynchronization cost (COW re-mapping).
  double ResyncNsPerWorker = 300.0;
  /// Aggregate shared memory bandwidth in bytes per ns. Calibrated as a
  /// multiple of the single-stream memcpy figure — multicore memory
  /// systems sustain roughly 2-3x one core's streaming rate, which is what
  /// makes memory-bound loops plateau rather than flatline.
  double BandwidthBytesPerNs = 20.0;

  /// Fixed cost of queueing one inter-stage record (frame build, ring
  /// push, doorbell write) on the stage pipeline's modeled clock.
  double StageDispatchNs = 500.0;

  /// Computes the modeled wall-clock of one lock-step round whose
  /// transactions are \p Txns, executed by \p NumWorkers workers.
  uint64_t roundNs(const std::vector<TxnCost> &Txns,
                   unsigned NumWorkers) const;

  /// Builds a model with constants measured on this host (memcpy
  /// bandwidth; fixed constants for synchronization, documented in
  /// EXPERIMENTS.md). Calibration runs once and is cached.
  static const CostModel &calibrated();
};

} // namespace alter

#endif // ALTER_RUNTIME_COSTMODEL_H
