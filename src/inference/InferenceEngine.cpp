//===- inference/InferenceEngine.cpp --------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "inference/InferenceEngine.h"

#include "runtime/Executor.h"
#include "support/Error.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>
#include <unistd.h>

using namespace alter;

//===----------------------------------------------------------------------===
// Candidate
//===----------------------------------------------------------------------===

std::string Candidate::str() const {
  std::string Name;
  switch (Model) {
  case ModelKind::Tls:
    Name = "TLS";
    break;
  case ModelKind::OutOfOrder:
    Name = "OutOfOrder";
    break;
  case ModelKind::StaleReads:
    Name = "StaleReads";
    break;
  }
  if (ReductionOp)
    Name += std::string("+Red(") + reduceOpName(*ReductionOp) + ")";
  return Name;
}

RuntimeParams Candidate::lower(const Workload &W, int ChunkFactor) const {
  if (Model == ModelKind::Tls) {
    assert(!ReductionOp && "TLS candidates carry no reductions (Thm 4.3)");
    return paramsForSequentialSpeculation(ChunkFactor);
  }
  Annotation A;
  A.Policy = Model == ModelKind::OutOfOrder ? ParallelPolicy::OutOfOrder
                                            : ParallelPolicy::StaleReads;
  A.ChunkFactor = ChunkFactor;
  if (ReductionOp) {
    // The paper's bounded search applies the same operator to every
    // reducible variable of the loop.
    for (const std::string &Var : W.reductionCandidates())
      A.Reductions.push_back({Var, *ReductionOp});
  }
  return paramsForAnnotation(A, W.reductionCandidates());
}

//===----------------------------------------------------------------------===
// Sandboxed candidate evaluation
//===----------------------------------------------------------------------===

namespace {

/// Candidate runs use the paper's test input and 4 workers.
constexpr size_t TestInput = 0;
constexpr unsigned CandidateWorkers = 4;

/// Fixed chunk factor during candidate evaluation (§5).
constexpr int CandidateChunkFactor = 16;

/// Modeled machine-memory cap on per-transaction access-set footprint
/// (reproduces the paper's AggloClust out-of-memory crash).
constexpr size_t CandidateAccessSetBytes = 160 << 10;

// The child writes its CandidateReport to the parent as raw bytes. Parent
// and child are forks of one binary, so the layout agrees by construction.
static_assert(std::is_trivially_copyable_v<RunStats>);
static_assert(std::is_trivially_copyable_v<CandidateReport>);

/// Runs the candidate end to end inside the child process and writes its
/// CandidateReport to \p WriteFd. Never returns.
[[noreturn]] void runCandidateChild(const std::string &Name,
                                    const Candidate &Cand, int WriteFd) {
  // Reference execution on a private instance: deterministic setup means
  // the child's reference equals the parent's (§4.3 — one run per test).
  std::unique_ptr<Workload> Ref = makeWorkload(Name);
  Ref->setUp(TestInput);
  const RunResult SeqResult = Ref->runSequential();
  const std::vector<double> Reference = Ref->outputSignature();

  // The 10x rule divides by this baseline, so measurement noise here flips
  // borderline classifications. The first run above doubles as a cache/
  // page warm-up; take the minimum over two more measured runs.
  uint64_t BaselineNs = SeqResult.Stats.RealTimeNs;
  for (int Rep = 0; Rep != 2; ++Rep) {
    std::unique_ptr<Workload> Again = makeWorkload(Name);
    Again->setUp(TestInput);
    BaselineNs =
        std::min(BaselineNs, Again->runSequential().Stats.RealTimeNs);
  }

  // Candidate runs execute with a generous 3x-widened abort deadline (30x
  // sequential) so true runaways still die early; the paper's 10x rule is
  // applied afterwards. For ratios near the 10x boundary the run repeats
  // and the minimum modeled time decides — semantics are deterministic
  // (§4.3), so only the clock differs between repeats, and taking the
  // minimum strips additive measurement noise that would otherwise flip
  // borderline classifications run to run.
  TxnLimits Limits;
  Limits.MaxAccessSetBytes = CandidateAccessSetBytes;
  auto RunCandidate = [&](RunResult &Out, bool &Valid) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    W->setUp(TestInput);
    const RuntimeParams Params = Cand.lower(*W, CandidateChunkFactor);
    Out = W->runLockstep(Params, CandidateWorkers, BaselineNs * 3, Limits);
    Valid = W->validate(Reference);
  };
  RunResult R;
  bool OutputValid = false;
  RunCandidate(R, OutputValid);
  uint64_t MinSimNs = R.Stats.SimTimeNs;
  if (R.Status == RunStatus::Success) {
    const double Ratio = static_cast<double>(MinSimNs) /
                         static_cast<double>(std::max<uint64_t>(BaselineNs, 1));
    if (Ratio > 0.6 * DeadlineFactor && Ratio < 1.4 * DeadlineFactor) {
      for (int Rep = 0; Rep != 2; ++Rep) {
        RunResult Again;
        bool AgainValid = false;
        RunCandidate(Again, AgainValid);
        if (Again.Status == RunStatus::Success)
          MinSimNs = std::min(MinSimNs, Again.Stats.SimTimeNs);
      }
    }
  }
  InferenceOutcome Outcome = classifyRun(R, OutputValid);
  // Post-hoc 10x rule on the stabilized time.
  if (R.Status == RunStatus::Success &&
      static_cast<double>(MinSimNs) >
          DeadlineFactor * static_cast<double>(BaselineNs))
    Outcome = InferenceOutcome::Timeout;

  const CandidateReport Report{Cand, Outcome, R.Stats};
  writeAllOrDie(WriteFd, &Report, sizeof(Report));
  _exit(0);
}

} // namespace

CandidateReport InferenceEngine::evaluateCandidate(const std::string &Name,
                                                   const Candidate &Cand) const {
  CandidateReport Report;
  Report.Cand = Cand;
  const SubprocessResult Sandbox = runInSandbox(
      [&](int WriteFd) { runCandidateChild(Name, Cand, WriteFd); },
      Config.SandboxTimeoutSec);

  if (Sandbox.SpawnFailed) {
    // The sandbox never launched (pipe/fork exhaustion in OUR process):
    // indict the environment, not the candidate.
    Report.Outcome = InferenceOutcome::EnvFault;
    return Report;
  }
  if (Sandbox.TimedOut) {
    Report.Outcome = InferenceOutcome::Timeout;
    return Report;
  }
  if (!Sandbox.Exited || Sandbox.ExitCode != 0 ||
      Sandbox.Output.size() != sizeof(CandidateReport)) {
    // Abnormal death (signal, allocator exhaustion, short write): the
    // candidate crashed the program.
    Report.Outcome = InferenceOutcome::Crash;
    return Report;
  }
  std::memcpy(&Report, Sandbox.Output.data(), sizeof(Report));
  return Report;
}

InferenceResult
InferenceEngine::inferForWorkload(const std::string &Name) const {
  InferenceResult Result;
  Result.WorkloadName = Name;

  // Dependence check "in join()" — safe, so run in-process.
  {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    W->setUp(TestInput);
    Result.LoopCarriedDep = W->probeDependences().AnyLoopCarried;
  }

  // TLS and the two reduction-free ALTER models.
  Result.Tls = evaluateCandidate(Name, {Candidate::ModelKind::Tls, {}});
  Result.OutOfOrder =
      evaluateCandidate(Name, {Candidate::ModelKind::OutOfOrder, {}});
  Result.StaleReads =
      evaluateCandidate(Name, {Candidate::ModelKind::StaleReads, {}});

  // Reduction search, "only if none of the annotations of the form (P, E)
  // are valid" (§5) and only when the loop exposes reducible variables.
  const bool AnyValid =
      Result.OutOfOrder.Outcome == InferenceOutcome::Success ||
      Result.StaleReads.Outcome == InferenceOutcome::Success;
  std::unique_ptr<Workload> Probe = makeWorkload(Name);
  if (!AnyValid && !Probe->reductionCandidates().empty()) {
    for (ReduceOp Op : {ReduceOp::Plus, ReduceOp::Mul, ReduceOp::Max,
                        ReduceOp::Min, ReduceOp::And, ReduceOp::Or}) {
      for (Candidate::ModelKind Model : {Candidate::ModelKind::OutOfOrder,
                                         Candidate::ModelKind::StaleReads}) {
        Result.ReductionSearch.push_back(
            evaluateCandidate(Name, {Model, Op}));
      }
    }
  }
  return Result;
}

std::vector<Candidate> InferenceResult::validCandidates() const {
  std::vector<Candidate> Valid;
  auto Consider = [&](const CandidateReport &Report) {
    if (Report.Outcome == InferenceOutcome::Success)
      Valid.push_back(Report.Cand);
  };
  Consider(StaleReads);
  Consider(OutOfOrder);
  Consider(Tls);
  for (const CandidateReport &Report : ReductionSearch)
    Consider(Report);
  return Valid;
}

std::string InferenceResult::reductionSummary() const {
  // Mirrors Table 3's Reduction column: the operators that made a model
  // valid, "/"-joined (e.g. "max/+"), or "N/A".
  std::string Summary;
  for (ReduceOp Op : {ReduceOp::Max, ReduceOp::Plus, ReduceOp::Mul,
                      ReduceOp::Min, ReduceOp::And, ReduceOp::Or}) {
    bool Valid = false;
    for (const CandidateReport &Report : ReductionSearch)
      if (Report.Cand.ReductionOp == Op &&
          Report.Outcome == InferenceOutcome::Success)
        Valid = true;
    if (!Valid)
      continue;
    if (!Summary.empty())
      Summary += "/";
    Summary += reduceOpName(Op);
  }
  return Summary.empty() ? "N/A" : Summary;
}

//===----------------------------------------------------------------------===
// Chunk-factor search
//===----------------------------------------------------------------------===

int alter::searchChunkFactor(Workload &W, const Candidate &Cand,
                             unsigned NumWorkers, size_t InputIndex,
                             int MaxChunkFactor) {
  int BestCf = 1;
  uint64_t BestTimeNs = ~uint64_t(0);
  int Degradations = 0;
  for (int Cf = 1; Cf <= MaxChunkFactor; Cf *= 2) {
    W.setUp(InputIndex);
    const RuntimeParams Params = Cand.lower(W, Cf);
    const RunResult R = W.runLockstep(Params, NumWorkers);
    if (!R.succeeded())
      break;
    if (R.Stats.SimTimeNs < BestTimeNs) {
      BestTimeNs = R.Stats.SimTimeNs;
      BestCf = Cf;
      Degradations = 0;
    } else if (++Degradations >= 2) {
      // "iteratively doubled until a performance degradation is seen over
      // two successive increments" (§5).
      break;
    }
  }
  return BestCf;
}
