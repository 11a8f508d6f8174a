//===- runtime/StagePipelinePlan.h - PS-DSWP stage decomposition -*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stage decomposition of an annotatable loop: a PS-DSWP-style split of
/// the body into a SEQUENTIAL first stage that carries the loop's
/// cross-iteration SCC and a REPLICATED second stage, with one u64 token
/// forwarded per iteration from the first to the second through an
/// inter-stage queue. The dependence the annotation would have broken
/// speculatively is instead carried in order by the sequential stage and
/// routed to the replicas through the queue.
///
/// Contract a plan must satisfy (the executor validates speculatively and
/// degrades to the recovery ladder on violation, so a wrong plan costs
/// performance, never correctness):
///
///  - running First then Second for iteration i, in iteration order, is
///    equivalent to running LoopSpec::Body for iteration i;
///  - the two stages' write footprints are disjoint;
///  - the replicated stage communicates with the sequential stage only
///    through the forwarded token (it must not read the other stage's
///    writes through memory).
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_STAGEPIPELINEPLAN_H
#define ALTER_RUNTIME_STAGEPIPELINEPLAN_H

#include <cstdint>
#include <functional>

namespace alter {

class TxnContext;

/// The stage decomposition itself. A default-constructed plan is inert
/// (valid() is false) and the loop always runs chunked.
struct StagePlan {
  /// Sequential stage of iteration i, run in the parent in iteration order:
  /// executes its share of the body and returns the token forwarded to the
  /// replicated stage.
  std::function<uint64_t(TxnContext &, int64_t)> First;

  /// Replicated stage of iteration i, run in a replica child: executes the
  /// rest of the body given the forwarded token.
  std::function<void(TxnContext &, int64_t, uint64_t)> Second;

  /// True when the loop carries a usable decomposition.
  bool valid() const { return static_cast<bool>(First) &&
                              static_cast<bool>(Second); }
};

/// Chunk granularity the staged schedule uses for a loop whose chunked
/// schedule is tuned at \p LoopCf. Staged chunks never misspeculate, so
/// their size trades only pipeline latency — none of the re-execution
/// waste that bounds chunked chunk factors — and a floor amortizes the
/// per-chunk dispatch, context, and commit-frame overheads that dominate
/// small chunks.
inline int64_t stagedChunkFactor(int64_t LoopCf) {
  return LoopCf < 256 ? 256 : LoopCf;
}

} // namespace alter

#endif // ALTER_RUNTIME_STAGEPIPELINEPLAN_H
