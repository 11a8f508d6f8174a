//===- inference/Outcome.h - Candidate outcome classification ---*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §5 outcome lattice: "For each annotation, the reported outcome is
/// one of the following: success, failure ∈ (crash, timeout, high
/// conflicts, output mismatch). A timeout is flagged if the execution takes
/// more than 10 times the sequential execution time. An execution is
/// flagged as having high conflicts if more than 50% of the attempted
/// commits fail."
///
/// One extension over the paper's lattice: EnvFault. A run that crashed or
/// timed out while the runtime was absorbing infrastructure faults (fork
/// failures, child crashes, rejected commit messages) says nothing about
/// the ANNOTATION — the same candidate might be perfectly breakable on a
/// healthy host. Classifying it as an environmental fault keeps the
/// inference table from rejecting an annotation for the machine's sins.
/// A run stopped by a shutdown request (RunStatus::Interrupted) is an
/// EnvFault for the same reason: its partial output is no evidence.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_INFERENCE_OUTCOME_H
#define ALTER_INFERENCE_OUTCOME_H

#include "runtime/RunResult.h"

namespace alter {

/// Classification of one candidate-annotation evaluation.
enum class InferenceOutcome {
  Success,
  Crash,
  Timeout,
  HighConflicts,
  OutputMismatch,
  /// The run failed (or only survived via sequential recovery) with
  /// infrastructure-fault counters nonzero, or was interrupted: the
  /// evidence indicts the environment, not the annotation's semantics.
  EnvFault,
};

/// Paper-style short name ("success", "crash", "timeout", "h.c.",
/// "mismatch", "env.fault").
const char *inferenceOutcomeName(InferenceOutcome Outcome);

/// Applies the §5 classification rules to a completed run.
/// \p OutputValid is the program-specific validation verdict; a run whose
/// failed-commit fraction exceeds 0.5 has high conflicts.
InferenceOutcome classifyRun(const RunResult &Result, bool OutputValid);

} // namespace alter

#endif // ALTER_INFERENCE_OUTCOME_H
