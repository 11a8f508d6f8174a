//===- workloads/Workload.cpp ---------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include "runtime/CommitJournal.h"
#include "runtime/ForkJoinExecutor.h"
#include "runtime/LockstepExecutor.h"
#include "runtime/PipelineExecutor.h"
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
/// a thread takes the whole process down, and the journal and fault plans
/// act in forked children.
ParallelEngine scheduledEngine(const Workload &W, const RuntimeParams &Params,
                               const CommitJournal *Journal) {
  const std::optional<Annotation> Paper = W.paperAnnotation();
  if (!Paper || Journal || FaultPlan::global().enabled())
    return ParallelEngine::Pipeline;
  RuntimeParams Certified = W.resolveAnnotation(*Paper);
  Certified.ChunkFactor = Params.ChunkFactor;
  return Params == Certified ? ParallelEngine::Threaded
                             : ParallelEngine::Pipeline;
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
  ExecutorConfig Config;
  Config.NumWorkers = NumWorkers;
  Config.Params = Params;
  Config.Limits = Limits;
  Config.SeqBaselineNs = SeqBaselineNs;
  Config.Allocator = allocator();
  LockstepExecutor Exec(Config);
  ExecutorLoopRunner Runner(Exec, SeqBaselineNs);
  run(Runner);
  Runner.release();
  return Runner.result();
}

RunResult Workload::runForkJoin(const RuntimeParams &Params,
                                unsigned NumWorkers, uint64_t SeqBaselineNs,
                                TxnLimits Limits) {
  ExecutorConfig Config;
  Config.NumWorkers = NumWorkers;
  Config.Params = Params;
  Config.Limits = Limits;
  Config.SeqBaselineNs = SeqBaselineNs;
  Config.Allocator = allocator();
  ForkJoinExecutor Exec(Config);
  ExecutorLoopRunner Runner(Exec, SeqBaselineNs);
  run(Runner);
  Runner.release();
  return Runner.result();
}

RunResult Workload::runPipeline(const RuntimeParams &Params,
                                unsigned NumWorkers, uint64_t SeqBaselineNs,
                                TxnLimits Limits) {
  ExecutorConfig Config;
  Config.NumWorkers = NumWorkers;
  Config.Params = Params;
  Config.Limits = Limits;
  Config.SeqBaselineNs = SeqBaselineNs;
  Config.Allocator = allocator();
  PipelineExecutor Exec(Config);
  ExecutorLoopRunner Runner(Exec, SeqBaselineNs);
  run(Runner);
  Runner.release();
  return Runner.result();
}

RunResult Workload::runRecovering(ParallelEngine Engine,
                                  const RuntimeParams &Params,
                                  unsigned NumWorkers, uint64_t SeqBaselineNs,
                                  TxnLimits Limits, CommitJournal *Journal) {
  ExecutorConfig Config;
  Config.NumWorkers = NumWorkers;
  Config.Params = Params;
  Config.Limits = Limits;
  Config.SeqBaselineNs = SeqBaselineNs;
  Config.Allocator = allocator();
  Config.Journal =
      resolveJournal(Journal, *this, Params, SchedulePolicy::Auto);
  RecoveringLoopRunner Runner(Engine, Config);
  run(Runner);
  Runner.release();
  return Runner.result();
}

RunResult Workload::runScheduled(SchedulePolicy Policy,
                                 const RuntimeParams &Params,
                                 unsigned NumWorkers, uint64_t SeqBaselineNs,
                                 TxnLimits Limits, CommitJournal *Journal) {
  ExecutorConfig Config;
  Config.NumWorkers = NumWorkers;
  Config.Params = Params;
  Config.Limits = Limits;
  Config.SeqBaselineNs = SeqBaselineNs;
  Config.Allocator = allocator();
  Config.Schedule = Policy;
  Config.Journal = resolveJournal(Journal, *this, Params, Policy);
  RecoveringLoopRunner Runner(scheduledEngine(*this, Params, Config.Journal),
                              Config);
  run(Runner);
  Runner.release();
  return Runner.result();
}

RuntimeParams Workload::resolveAnnotation(const Annotation &A) const {
  RuntimeParams Params = paramsForAnnotation(A, reductionCandidates());
  if (A.ChunkFactor <= 0)
    Params.ChunkFactor = defaultChunkFactor();
  return Params;
}
