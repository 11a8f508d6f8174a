//===- inference/InferenceEngine.h - Test-driven annotation inference -*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §5 annotation-inference framework. For a given loop, the
/// engine enumerates candidate execution models, runs each once per test
/// input (determinism makes one run per test sufficient, §4.3), and
/// classifies the outcomes. The enumeration matches the paper:
///
///  - a dependence check "in join()" (loop-carried RAW/WAW/WAR);
///  - TLS feasibility (RAW + InOrder, Theorem 4.3);
///  - the two ALTER models without reductions, (OutOfOrder, ε) and
///    (StaleReads, ε), at the fixed inference chunk factor of 16;
///  - a bounded reduction search — only entered when no reduction-free
///    annotation is valid — trying each of the six operators, the same
///    operator applied to every candidate variable;
///  - an iterative-doubling chunk-factor search for valid annotations.
///
/// Every candidate executes inside a forked sandbox: crashes, runaway
/// loops, and state corruption stay contained, and the child's death mode
/// feeds the crash/timeout classification directly.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_INFERENCE_INFERENCEENGINE_H
#define ALTER_INFERENCE_INFERENCEENGINE_H

#include "inference/Outcome.h"
#include "runtime/Annotation.h"
#include "runtime/RuntimeParams.h"
#include "workloads/Workload.h"

#include <optional>
#include <string>
#include <vector>

namespace alter {

/// One candidate execution model for a loop.
struct Candidate {
  enum class ModelKind { Tls, OutOfOrder, StaleReads };

  ModelKind Model = ModelKind::StaleReads;
  /// Optional reduction clause; per the paper's search strategy the same
  /// operator is applied to every reducible variable of the loop.
  std::optional<ReduceOp> ReductionOp;

  /// Short display name ("TLS", "OutOfOrder", "StaleReads+Red(max)").
  std::string str() const;

  /// Realizes the candidate as runtime parameters for \p W at chunk factor
  /// \p ChunkFactor.
  RuntimeParams lower(const Workload &W, int ChunkFactor) const;
};

/// Engine configuration. The §5 procedure itself is fixed: candidates run
/// on the test input (input 0) with 4 workers at chunk factor 16, and are
/// classified by the 10x timeout rule (DeadlineFactor) and the 0.5
/// high-conflict rule.
struct InferenceConfig {
  /// Hard wall-clock limit for one sandboxed evaluation.
  unsigned SandboxTimeoutSec = 120;
};

/// Result of evaluating one candidate. The sandboxed child writes it whole
/// to its parent as raw bytes, so it stays trivially copyable.
struct CandidateReport {
  Candidate Cand;
  InferenceOutcome Outcome = InferenceOutcome::Crash;
  /// The candidate run's statistics (all 0 when the sandbox died before
  /// reporting).
  RunStats Stats;
};

/// Complete inference result for one loop (one Table 3 row, plus the
/// reduction search detail).
struct InferenceResult {
  std::string WorkloadName;
  bool LoopCarriedDep = false;
  CandidateReport Tls;
  CandidateReport OutOfOrder;
  CandidateReport StaleReads;
  /// Populated only when the reduction search ran.
  std::vector<CandidateReport> ReductionSearch;

  /// All candidates that classified as success, most permissive first.
  std::vector<Candidate> validCandidates() const;

  /// The reduction operators (if any) that made a model succeed.
  std::string reductionSummary() const;
};

/// Test-driven annotation inference over the workload registry.
class InferenceEngine {
public:
  explicit InferenceEngine(InferenceConfig Config) : Config(Config) {}

  /// Runs the full §5 procedure for one workload.
  InferenceResult inferForWorkload(const std::string &Name) const;

  /// Evaluates a single candidate in a sandbox.
  CandidateReport evaluateCandidate(const std::string &Name,
                                    const Candidate &Cand) const;

private:
  InferenceConfig Config;
};

/// Iterative-doubling chunk-factor search (§5): starting at 1, doubles the
/// chunk factor until performance degrades over two successive increments,
/// then returns the best-performing value. \p Make must return a fresh
/// workload set up on the chosen input.
int searchChunkFactor(Workload &W, const Candidate &Cand, unsigned NumWorkers,
                      size_t InputIndex, int MaxChunkFactor = 4096);

} // namespace alter

#endif // ALTER_INFERENCE_INFERENCEENGINE_H
