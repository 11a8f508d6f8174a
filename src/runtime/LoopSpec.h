//===- runtime/LoopSpec.h - Annotated-loop description ----------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LoopSpec describes one annotatable loop: its iteration space, its body
/// (written against TxnContext, which plays the role of the instrumentation
/// the paper's Phoenix phases would have inserted), and the set of scalar
/// variables that *may* be treated as reductions. Which of those bindings is
/// actually reduced — and with which operator — is chosen per run by the
/// RuntimeParams, so the inference engine can evaluate candidate reductions
/// against the very same loop body.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_LOOPSPEC_H
#define ALTER_RUNTIME_LOOPSPEC_H

#include "runtime/ReductionOps.h"
#include "runtime/StagePipelinePlan.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace alter {

class TxnContext;

/// A scalar variable the loop may reduce over. When the active RuntimeParams
/// do not enable the binding, its accesses behave as ordinary instrumented
/// loads/stores — i.e. as the un-annotated source program.
struct ReductionBinding {
  /// Annotation-level variable name ("delta", "err", ...).
  std::string Name;
  /// Storage of the variable in the enclosing program.
  void *Addr = nullptr;
  /// Scalar kind of the storage.
  ScalarKind Kind = ScalarKind::F64;
};

/// The original coordinates of one re-indexed chunk: which chunk of the
/// enclosing loop it is, and which iterations of that loop it covers.
struct FaultCoords {
  int64_t Chunk = 0;
  int64_t FirstIter = 0;
  int64_t LastIter = 0;
};

/// Description of one annotatable loop.
struct LoopSpec {
  /// Diagnostic name ("kmeans.main", "gs.inner", ...).
  std::string Name;

  /// Number of iterations of the (inner) loop for this invocation.
  int64_t NumIterations = 0;

  /// The loop body. All accesses to memory shared across iterations must go
  /// through the TxnContext; iteration-local state may use plain C++.
  std::function<void(TxnContext &, int64_t)> Body;

  /// Variables eligible for reduction annotations, in binding-slot order.
  std::vector<ReductionBinding> Reductions;

  /// Optional PS-DSWP stage decomposition of the body (see
  /// StagePipelinePlan.h). When valid(), the schedule-aware runner runs the
  /// loop as sequential-stage -> queue -> replicated-stage instead of
  /// chunked speculation under SchedulePolicy::Auto with two or more
  /// workers; engines that do not understand stages ignore it and run Body
  /// as always. Stage.First + Stage.Second in iteration order must be
  /// equivalent to Body.
  StagePlan Stage;

  /// Salvage sub-runs (RecoveringLoopRunner's degradation ladder)
  /// re-execute chunks of an enclosing loop under fresh local indices. This
  /// hook maps a local chunk and its local iteration range back to the
  /// ORIGINAL coordinates, so armed fault points (FaultPlan) keep striking
  /// the same logical work across re-executions. Null for top-level loops:
  /// local coordinates are the original ones.
  std::function<FaultCoords(int64_t Chunk, int64_t FirstIter,
                            int64_t LastIter)>
      FaultRemap;

  /// Names of the reduction bindings, for annotation resolution.
  std::vector<std::string> reductionNames() const {
    std::vector<std::string> Names;
    Names.reserve(Reductions.size());
    for (const ReductionBinding &B : Reductions)
      Names.push_back(B.Name);
    return Names;
  }
};

} // namespace alter

#endif // ALTER_RUNTIME_LOOPSPEC_H
