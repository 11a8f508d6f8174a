//===- inference/Outcome.cpp ----------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "inference/Outcome.h"

#include "support/Error.h"

using namespace alter;

const char *alter::inferenceOutcomeName(InferenceOutcome Outcome) {
  switch (Outcome) {
  case InferenceOutcome::Success:
    return "success";
  case InferenceOutcome::Crash:
    return "crash";
  case InferenceOutcome::Timeout:
    return "timeout";
  case InferenceOutcome::HighConflicts:
    return "h.c.";
  case InferenceOutcome::OutputMismatch:
    return "mismatch";
  case InferenceOutcome::EnvFault:
    return "env.fault";
  }
  ALTER_UNREACHABLE("covered switch");
}

InferenceOutcome alter::classifyRun(const RunResult &Result, bool OutputValid,
                                    double HighConflictRate) {
  // Infrastructure faults the runtime observed (and contained) this run.
  // A crash/timeout with these nonzero is not evidence against the
  // annotation; neither is a "success" that only completed because the
  // sequential-recovery path took over.
  const uint64_t EnvFaults = Result.Stats.NumForkFailures +
                             Result.Stats.NumChildCrashes +
                             Result.Stats.NumWireRejects;
  switch (Result.Status) {
  case RunStatus::Crash:
    return EnvFaults != 0 ? InferenceOutcome::EnvFault
                          : InferenceOutcome::Crash;
  case RunStatus::Timeout:
    return EnvFaults != 0 ? InferenceOutcome::EnvFault
                          : InferenceOutcome::Timeout;
  case RunStatus::Interrupted:
    // A shutdown request stopped the run: its partial output says nothing
    // about the annotation either way.
    return InferenceOutcome::EnvFault;
  case RunStatus::Success:
    break;
  }
  if (Result.Stats.Recovered && EnvFaults != 0)
    return InferenceOutcome::EnvFault;
  if (Result.Stats.retryRate() > HighConflictRate)
    return InferenceOutcome::HighConflicts;
  if (!OutputValid)
    return InferenceOutcome::OutputMismatch;
  return InferenceOutcome::Success;
}
