//===- workloads/Workload.cpp ---------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include "runtime/CommitJournal.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

using namespace alter;

namespace {

/// Explicit journal wins; otherwise the ALTER_JOURNAL env surface may
/// attach the process-global one. The identity deliberately excludes
/// NumWorkers and the baseline: a restart may resume with a different
/// worker count, but must not resume a different workload or schedule.
CommitJournal *resolveJournal(CommitJournal *Journal, const Workload &W,
                              const RuntimeParams &Params,
                              SchedulePolicy Policy) {
  if (Journal)
    return Journal;
  JournalIdentity Id;
  Id.Workload = W.name();
  Id.Seed = 0;
  Id.ChunkFactor = Params.ChunkFactor;
  Id.Schedule = schedulePolicyName(Policy);
  return maybeEnvJournal(Id);
}

/// The engine runScheduled gives chunked invocations: threads only for a
/// certified annotation (Table 3) whose run needs no process — a crash on
/// a thread takes the whole process down, and fault plans act in forked
/// children.
ParallelEngine scheduledEngine(const Workload &W,
                               const RuntimeParams &Params) {
  const std::optional<Annotation> Paper = W.paperAnnotation();
  if (!Paper || FaultPlan::global().enabled())
    return ParallelEngine::Pipeline;
  RuntimeParams Certified = W.resolveAnnotation(*Paper);
  Certified.ChunkFactor = Params.ChunkFactor;
  return Params == Certified ? ParallelEngine::Threaded
                             : ParallelEngine::Pipeline;
}

/// The configuration every run* method below starts from.
ExecutorConfig baseConfig(Workload &W, const RuntimeParams &Params,
                          unsigned NumWorkers, uint64_t SeqBaselineNs,
                          TxnLimits Limits) {
  ExecutorConfig Config;
  Config.NumWorkers = NumWorkers;
  Config.Params = Params;
  Config.Limits = Limits;
  Config.SeqBaselineNs = SeqBaselineNs;
  Config.Allocator = W.allocator();
  return Config;
}

/// Runs the whole algorithm of \p W through \p Runner.
RunResult runAlgorithm(Workload &W, LoopRunner &Runner) {
  W.run(Runner);
  Runner.release();
  return Runner.result();
}

/// Runs the whole algorithm of \p W on one \p Engine, with no ladder.
RunResult runOnEngine(Workload &W, ParallelEngine Engine,
                      const ExecutorConfig &Config) {
  const std::unique_ptr<Executor> Exec = makeParallelEngine(Engine, Config);
  ExecutorLoopRunner Runner(*Exec, Config.SeqBaselineNs);
  return runAlgorithm(W, Runner);
}

} // namespace

Workload::~Workload() = default;

RunResult Workload::runSequential(uint64_t *TotalNs) {
  SequentialLoopRunner Runner(allocator());
  const uint64_t Start = nowNs();
  run(Runner);
  if (TotalNs)
    *TotalNs = nowNs() - Start;
  return Runner.result();
}

DependenceReport Workload::probeDependences() {
  ProbeLoopRunner Runner(allocator());
  run(Runner);
  return Runner.report();
}

RunResult Workload::runLockstep(const RuntimeParams &Params,
                                unsigned NumWorkers, uint64_t SeqBaselineNs,
                                TxnLimits Limits) {
  return runOnEngine(
      *this, ParallelEngine::Threaded,
      baseConfig(*this, Params, NumWorkers, SeqBaselineNs, Limits));
}

RunResult Workload::runForkJoin(const RuntimeParams &Params,
                                unsigned NumWorkers, uint64_t SeqBaselineNs,
                                TxnLimits Limits) {
  return runOnEngine(
      *this, ParallelEngine::ForkJoin,
      baseConfig(*this, Params, NumWorkers, SeqBaselineNs, Limits));
}

RunResult Workload::runPipeline(const RuntimeParams &Params,
                                unsigned NumWorkers, uint64_t SeqBaselineNs,
                                TxnLimits Limits) {
  return runOnEngine(
      *this, ParallelEngine::Pipeline,
      baseConfig(*this, Params, NumWorkers, SeqBaselineNs, Limits));
}

RunResult Workload::runRecovering(ParallelEngine Engine,
                                  const RuntimeParams &Params,
                                  unsigned NumWorkers, uint64_t SeqBaselineNs,
                                  TxnLimits Limits, CommitJournal *Journal) {
  ExecutorConfig Config =
      baseConfig(*this, Params, NumWorkers, SeqBaselineNs, Limits);
  Config.Schedule = SchedulePolicy::Chunked;
  Config.Journal = resolveJournal(Journal, *this, Params, Config.Schedule);
  RecoveringLoopRunner Runner(Engine, Config);
  return runAlgorithm(*this, Runner);
}

RunResult Workload::runScheduled(SchedulePolicy Policy,
                                 const RuntimeParams &Params,
                                 unsigned NumWorkers, uint64_t SeqBaselineNs,
                                 TxnLimits Limits, CommitJournal *Journal) {
  ExecutorConfig Config =
      baseConfig(*this, Params, NumWorkers, SeqBaselineNs, Limits);
  Config.Schedule = Policy;
  Config.Journal = resolveJournal(Journal, *this, Params, Policy);
  RecoveringLoopRunner Runner(scheduledEngine(*this, Params), Config);
  return runAlgorithm(*this, Runner);
}

RuntimeParams Workload::resolveAnnotation(const Annotation &A) const {
  RuntimeParams Params = paramsForAnnotation(A, reductionCandidates());
  if (A.ChunkFactor <= 0)
    Params.ChunkFactor = defaultChunkFactor();
  return Params;
}
