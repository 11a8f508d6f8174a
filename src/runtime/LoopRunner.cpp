//===- runtime/LoopRunner.cpp ---------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/LoopRunner.h"

#include "runtime/CommitJournal.h"
#include "runtime/ForkJoinExecutor.h"
#include "runtime/PipelineExecutor.h"
#include "runtime/ShutdownSupervisor.h"
#include "runtime/StagePipelineExecutor.h"
#include "support/Error.h"
#include "support/Random.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <ctime>
#include <vector>

using namespace alter;

std::unique_ptr<Executor> alter::makeParallelEngine(ParallelEngine Engine,
                                                    const ExecutorConfig &Config) {
  switch (Engine) {
  case ParallelEngine::ForkJoin:
    return std::make_unique<ForkJoinExecutor>(Config);
  case ParallelEngine::Pipeline:
    return std::make_unique<PipelineExecutor>(Config);
  }
  ALTER_UNREACHABLE("covered switch");
}

LoopRunner::~LoopRunner() = default;

bool LoopRunner::fold(RunResult R) {
  Accumulated.Stats.merge(R.Stats);
  Accumulated.mergeTrace(R);
  if (R.Status != RunStatus::Success) {
    Accumulated.Status = R.Status;
    Accumulated.Detail = std::move(R.Detail);
    return false;
  }
  return true;
}

bool SequentialLoopRunner::runInner(const LoopSpec &Spec) {
  return fold(Exec.run(Spec));
}

bool ProbeLoopRunner::runInner(const LoopSpec &Spec) {
  return fold(Exec.run(Spec));
}

bool ExecutorLoopRunner::runInner(const LoopSpec &Spec) {
  // Let the engine apply the deadline mid-run relative to what earlier
  // invocations already consumed.
  Exec.setAccumulatedSimNs(Accumulated.Stats.SimTimeNs);
  if (!fold(Exec.run(Spec)))
    return false;
  if (SeqBaselineNs != 0 &&
      static_cast<double>(Accumulated.Stats.SimTimeNs) >
          TimeoutFactor * static_cast<double>(SeqBaselineNs)) {
    Accumulated.Status = RunStatus::Timeout;
    Accumulated.Detail =
        "accumulated modeled time exceeded the 10x-sequential deadline";
    return false;
  }
  return true;
}

void ExecutorLoopRunner::release() {
  Accumulated.Stats.addChildUsage(Exec.release());
}

RecoveringLoopRunner::RecoveringLoopRunner(ParallelEngine Engine,
                                           ExecutorConfig Config,
                                           AlterAllocator *Allocator)
    : Engine(Engine), Config(std::move(Config)) {
  if (Allocator)
    this->Config.Allocator = Allocator;
  this->Allocator = this->Config.Allocator;
  Primary = makeParallelEngine(Engine, this->Config);
}

void RecoveringLoopRunner::release() {
  Accumulated.Stats.addChildUsage(Primary->release());
}

bool RecoveringLoopRunner::runInner(const LoopSpec &Spec) {
  CommitJournal *J = Config.Journal;
  // Restart recovery: an invocation the journal already records (fully or
  // partially) is replayed/resumed instead of run fresh. takeRecovered
  // advances the cursor, so re-iterated algorithms recover invocation by
  // invocation in their original order.
  if (J)
    if (const RecoveredInvocation *Rec = J->takeRecovered())
      return resumeRecovered(Spec, *Rec);
  if (SequentialMode) {
    // Deadline already tripped: no speculation, no committed chunks — the
    // whole loop is one uncommitted "chunk".
    const int64_t WholeCf = Spec.NumIterations > 0 ? Spec.NumIterations : 1;
    if (J)
      J->beginInvocation(Spec.Name, Spec.NumIterations, WholeCf,
                         static_cast<uint8_t>(ScheduleKind::Sequential));
    fullTailSequential(Spec, {0}, WholeCf);
    if (J)
      J->endInvocation();
    drainJournalStats();
    return true;
  }
  if (Config.Schedule == SchedulePolicy::Sequential) {
    // Chosen, not degraded-to: run the reference engine outright.
    SequentialExecutor Seq(Allocator);
    Accumulated.ScheduleUsed = ScheduleKind::Sequential;
    if (J)
      J->beginInvocation(Spec.Name, Spec.NumIterations,
                         Spec.NumIterations > 0 ? Spec.NumIterations : 1,
                         static_cast<uint8_t>(ScheduleKind::Sequential));
    const bool Ok = fold(Seq.run(Spec));
    if (J && Ok) {
      // One frame for the whole loop: sequential execution commits all-or-
      // nothing from the journal's point of view.
      if (Spec.NumIterations > 0)
        J->appendRange(0, 0, Spec.NumIterations);
      J->endInvocation();
    }
    drainJournalStats();
    return Ok;
  }
  // Schedule selection. The pipeline needs a valid decomposition and at
  // least one replica beside the sequential lane; the planner's staged
  // estimate assumes that split, so a single worker always runs chunked.
  const bool CanStage = Spec.Stage.valid() && Config.NumWorkers >= 2;
  bool UseStaged = false;
  if (Config.Schedule == SchedulePolicy::Staged)
    UseStaged = CanStage;
  else if (Config.Schedule == SchedulePolicy::Auto && CanStage)
    UseStaged = planPicksStaged(Spec);
  if (J) {
    // LoopBegin carries the geometry recovery must reconstruct: the
    // RESOLVED chunk factor of the schedule actually picked (the staged
    // engine widens chunks — see stagedChunkFactor).
    const int64_t BaseCf = Config.Params.ChunkFactor > 0
                               ? Config.Params.ChunkFactor
                               : globalChunkFactor();
    J->beginInvocation(Spec.Name, Spec.NumIterations,
                       UseStaged ? stagedChunkFactor(BaseCf) : BaseCf,
                       static_cast<uint8_t>(UseStaged ? ScheduleKind::Staged
                                                      : ScheduleKind::Chunked));
  }
  if (UseStaged) {
    if (!runStagedInner(Spec)) {
      // Interrupted: leave the invocation open (no LoopEnd) so a restart
      // resumes it, but make the committed prefix durable now — the
      // supervisor's escalation may not leave us another chance.
      runShutdownFlushHook();
      drainJournalStats();
      return false;
    }
  } else {
    Accumulated.ScheduleUsed = ScheduleKind::Chunked;
    Primary->setAccumulatedSimNs(Accumulated.Stats.SimTimeNs);
    RunResult R = Primary->run(Spec);
    if (R.ChunkFactorUsed > 0)
      Accumulated.ChunkFactorUsed = R.ChunkFactorUsed;
    Accumulated.mergeTrace(R);
    Accumulated.Stats.merge(R.Stats);
    if (R.Status == RunStatus::Interrupted) {
      // A shutdown request is a command to stop, not a fault to recover
      // from: the ladder must NOT try to finish the loop. The engine
      // already reaped its children; surface the partial result as-is.
      Accumulated.Status = RunStatus::Interrupted;
      Accumulated.Detail = std::move(R.Detail);
      runShutdownFlushHook();
      drainJournalStats();
      return false;
    }
    if (R.Status != RunStatus::Success) {
      if (!R.Detail.empty())
        Accumulated.Detail = "recovered after: " + R.Detail;
      runLadder(Spec, R);
    }
  }
  if (J)
    J->endInvocation();
  drainJournalStats();
  if (Config.SeqBaselineNs != 0 && !SequentialMode &&
      static_cast<double>(Accumulated.Stats.SimTimeNs) >
          Config.TimeoutFactor * static_cast<double>(Config.SeqBaselineNs)) {
    // Completion stays guaranteed, but the time budget is spent: later
    // invocations go straight to sequential execution.
    SequentialMode = true;
    Accumulated.Stats.Recovered = true;
    Accumulated.Detail = "switched to sequential execution after the "
                         "accumulated deadline expired";
  }
  return true;
}

bool RecoveringLoopRunner::runStagedInner(const LoopSpec &Spec) {
  Accumulated.ScheduleUsed = ScheduleKind::Staged;
  StagePipelineExecutor Staged(Config);
  Staged.setAccumulatedSimNs(Accumulated.Stats.SimTimeNs);
  RunResult R = Staged.run(Spec);
  if (R.ChunkFactorUsed > 0)
    Accumulated.ChunkFactorUsed = R.ChunkFactorUsed;
  Accumulated.mergeTrace(R);
  Accumulated.Stats.merge(R.Stats);
  if (R.Status == RunStatus::Interrupted) {
    // Stop, don't recover — see the chunked path above.
    Accumulated.Status = RunStatus::Interrupted;
    Accumulated.Detail = std::move(R.Detail);
    return false;
  }
  if (R.Status != RunStatus::Success) {
    // The pipeline indicts chunks and reports CommitOrder exactly like the
    // chunked engines, so the same ladder resolves its failures; ladder
    // sub-runs speculate chunked — re-staging a failed plan is pointless.
    if (!R.Detail.empty())
      Accumulated.Detail = "recovered after: " + R.Detail;
    runLadder(Spec, R);
  }
  return true;
}

bool RecoveringLoopRunner::planPicksStaged(const LoopSpec &Spec) {
  const int64_t N = Spec.NumIterations;
  if (N <= 0)
    return false;
  const int64_t Cf = Config.Params.ChunkFactor > 0 ? Config.Params.ChunkFactor
                                                   : globalChunkFactor();
  const int64_t StageCf = stagedChunkFactor(Cf);
  // Enough iterations to fill two staged-size chunks, so both passes probe
  // steady-state chunk behavior rather than warm-up.
  const int64_t K = std::min<int64_t>(N, 2 * StageCf);

  LoopCostProfile Profile;
  Profile.NumIterations = N;
  Profile.ChunkFactor = Cf;
  Profile.StageChunkFactor = StageCf;
  Profile.ChunkedAbortRate = Spec.Stage.chunkedAbortRate();
  Profile.RemovalNsPerIter =
      static_cast<double>(Spec.Stage.removalNsPerIter());
  // One u64 token per iteration plus its amortized share of record framing.
  Profile.TokenBytesPerIter =
      8.0 + 48.0 / static_cast<double>(StageCf > 0 ? StageCf : 1);

  // Replicas run FULL-tracked regardless of the annotation (see
  // StagePipelineExecutor); the probe mirrors that so the replicated
  // lane's estimate carries the same instrumentation weight.
  RuntimeParams ParParams = Config.Params;
  ParParams.Conflict = ConflictPolicy::FULL;

  uint64_t BodyNs = 0, SeqNs = 0, ParNs = 0, CommitBytes = 0, CheckWords = 0;
  const uint64_t ProbeT0 = nowNs();
  // Pass 1: the undecomposed body under the annotation's own
  // instrumentation — the per-iteration work and commit volumes a chunked
  // speculation replica pays, in chunks of the chunked engines' factor.
  // Every probe transaction is rolled back, so the measurement leaves
  // memory untouched. Contexts persist across chunks (beginTxn reuses warm
  // capacity), matching both engines' pooled contexts.
  {
    TxnContext Ctx(ContextMode::Transactional, &Config.Params, &Spec,
                   Allocator, /*Worker=*/0u, Config.Limits);
    for (int64_t First = 0; First < K; First += Cf) {
      const int64_t Last = std::min<int64_t>(First + Cf, K);
      Ctx.beginTxn();
      const uint64_t T0 = cpuNowNs();
      for (int64_t I = First; I != Last; ++I)
        Spec.Body(Ctx, I);
      BodyNs += cpuNowNs() - T0;
      CommitBytes += Ctx.writeLog().dataBytes();
      CheckWords += Ctx.readSet().sizeWords() + Ctx.writeSet().sizeWords();
      const bool Limited = Ctx.limitExceeded();
      Ctx.suspendTxn();
      Ctx.abortTxn();
      if (Limited)
        return false; // truncated tracking: the measurement is unreliable
    }
  }
  // Pass 2: the halves in staged-size chunks, each half under the regime
  // its lane actually runs with — the sequential lane drops conflict sets,
  // the replicated stage tracks FULL with buffered writes (see
  // StagePipelineExecutor). All Firsts then all Seconds, like a staged
  // chunk; the undo-logged half is rolled back per chunk, the buffered
  // half never touched memory.
  {
    TxnContext SeqCtx(ContextMode::Transactional, &Config.Params, &Spec,
                      Allocator, /*Worker=*/0u, Config.Limits);
    SeqCtx.disableConflictTracking();
    TxnContext ParCtx(ContextMode::Transactional, &ParParams, &Spec,
                      Allocator, /*Worker=*/0u, Config.Limits);
    ParCtx.enableBufferedWrites();
    TxnContext &FirstCtx =
        Spec.Stage.Order == StageOrder::SeqFirst ? SeqCtx : ParCtx;
    TxnContext &SecondCtx =
        Spec.Stage.Order == StageOrder::SeqFirst ? ParCtx : SeqCtx;
    for (int64_t First = 0; First < K; First += StageCf) {
      const int64_t Last = std::min<int64_t>(First + StageCf, K);
      SeqCtx.beginTxn();
      ParCtx.beginTxn();
      std::vector<uint64_t> Tokens;
      Tokens.reserve(static_cast<size_t>(Last - First));
      const uint64_t T0 = cpuNowNs();
      for (int64_t I = First; I != Last; ++I)
        Tokens.push_back(Spec.Stage.First(FirstCtx, I));
      const uint64_t T1 = cpuNowNs();
      for (int64_t I = First; I != Last; ++I)
        Spec.Stage.Second(SecondCtx, I,
                          Tokens[static_cast<size_t>(I - First)]);
      const uint64_t T2 = cpuNowNs();
      if (Spec.Stage.Order == StageOrder::SeqFirst) {
        SeqNs += T1 - T0;
        ParNs += T2 - T1;
      } else {
        ParNs += T1 - T0;
        SeqNs += T2 - T1;
      }
      const bool Limited = SeqCtx.limitExceeded() || ParCtx.limitExceeded();
      SecondCtx.suspendTxn();
      SecondCtx.abortTxn();
      FirstCtx.suspendTxn();
      FirstCtx.abortTxn();
      if (Limited)
        return false;
    }
  }
  // The probe is real sequential work; charge it against both clocks so
  // the outer deadline still sees it.
  const uint64_t ProbeNs = nowNs() - ProbeT0;
  Accumulated.Stats.RealTimeNs += ProbeNs;
  Accumulated.Stats.SimTimeNs += ProbeNs;

  Profile.SeqStageNsPerIter =
      static_cast<double>(SeqNs) / static_cast<double>(K);
  Profile.ParStageNsPerIter =
      static_cast<double>(ParNs) / static_cast<double>(K);
  Profile.ChunkedBodyNsPerIter =
      static_cast<double>(BodyNs) / static_cast<double>(K);
  Profile.CommitBytesPerIter =
      static_cast<double>(CommitBytes) / static_cast<double>(K);
  Profile.CheckWordsPerIter =
      static_cast<double>(CheckWords) / static_cast<double>(K);

  const CostModel &Model =
      Config.Costs ? *Config.Costs : CostModel::calibrated();
  const ScheduleEstimate E =
      Model.estimateSchedules(Profile, Config.NumWorkers);
  traceLadderEvent(TraceEventKind::SchedulePick, /*Chunk=*/-1,
                   /*Arg0=*/E.ChunkedNs, /*Arg1=*/E.StagedNs);
  return E.stagedWins();
}

bool RecoveringLoopRunner::budgetExpired() const {
  if (Config.SeqBaselineNs == 0)
    return false;
  return static_cast<double>(Accumulated.Stats.RealTimeNs) >
         Config.TimeoutFactor * static_cast<double>(Config.SeqBaselineNs);
}

namespace {

/// Removes from \p Remaining (sorted ascending) every original chunk a
/// sub-run committed. \p Chunks maps the sub-run's local chunk indices
/// (which CommitOrder holds) back to original indices.
void eraseCommitted(std::vector<int64_t> &Remaining,
                    const std::vector<int64_t> &Chunks, const RunResult &R) {
  for (int64_t Local : R.CommitOrder) {
    if (Local < 0 || static_cast<size_t>(Local) >= Chunks.size())
      continue;
    const int64_t Orig = Chunks[static_cast<size_t>(Local)];
    const auto It = std::lower_bound(Remaining.begin(), Remaining.end(), Orig);
    if (It != Remaining.end() && *It == Orig)
      Remaining.erase(It);
  }
}

/// Maps a sub-run's local FailedChunk back to the original chunk index;
/// -1 when the sub-run indicted nothing (timeout, poll failure).
int64_t mapFailedChunk(const RunResult &R, const std::vector<int64_t> &Chunks) {
  if (R.FailedChunk < 0 || static_cast<size_t>(R.FailedChunk) >= Chunks.size())
    return -1;
  return Chunks[static_cast<size_t>(R.FailedChunk)];
}

} // namespace

void RecoveringLoopRunner::runLadder(const LoopSpec &Spec,
                                     const RunResult &Failed) {
  const int64_t N = Spec.NumIterations;
  if (N == 0) {
    Accumulated.Stats.Recovered = true;
    return;
  }
  // Engines that chunk always report ChunkFactorUsed; a result without one
  // committed nothing, so the whole loop is a single uncommitted chunk.
  const int64_t Cf = Failed.ChunkFactorUsed > 0 ? Failed.ChunkFactorUsed : N;
  const int64_t NumChunks = (N + Cf - 1) / Cf;
  std::vector<bool> Done(static_cast<size_t>(NumChunks), false);
  for (int64_t C : Failed.CommitOrder)
    if (C >= 0 && C < NumChunks)
      Done[static_cast<size_t>(C)] = true;
  std::vector<int64_t> Remaining;
  for (int64_t C = 0; C != NumChunks; ++C)
    if (!Done[static_cast<size_t>(C)])
      Remaining.push_back(C);

  int64_t Indicted = Failed.FailedChunk;
  // Hard cap on ladder rounds: each round either resolves the indicted
  // chunk or strictly lowers the indictment, but a pathological fault plan
  // (every chunk poisoned) must still terminate promptly.
  int64_t RoundsLeft = 2 * NumChunks + 4;

  while (!Remaining.empty()) {
    if (!Config.EnableSalvage || Indicted < 0 ||
        !std::binary_search(Remaining.begin(), Remaining.end(), Indicted) ||
        --RoundsLeft <= 0 || budgetExpired()) {
      // Ladder floor: the failure has no single culpable chunk (Timeout),
      // salvage is off, or the budget is spent — finish sequentially.
      fullTailSequential(Spec, Remaining, Cf);
      return;
    }

    // The pipeline's InOrder retirement can indict a chunk that is not the
    // oldest uncommitted one. Older uncommitted chunks are innocent; re-run
    // them in parallel first so InOrder splice semantics (committed chunks
    // form a program-order prefix) survive the salvage.
    std::vector<int64_t> Pre;
    for (int64_t C : Remaining)
      if (C < Indicted)
        Pre.push_back(C);
    if (!Pre.empty()) {
      const RunResult R = runChunksParallel(Spec, Pre, Cf);
      eraseCommitted(Remaining, Pre, R);
      if (R.Status != RunStatus::Success) {
        // An older chunk is also sick: it becomes the indicted one.
        Indicted = mapFailedChunk(R, Pre);
        continue;
      }
    }

    resolveChunk(Spec, Indicted, Cf);
    Remaining.erase(
        std::remove(Remaining.begin(), Remaining.end(), Indicted),
        Remaining.end());
    if (Remaining.empty())
      return;

    // The indicted chunk is out of the way: the tail gets to run in
    // parallel again.
    const std::vector<int64_t> Tail = Remaining;
    const RunResult R = runChunksParallel(Spec, Tail, Cf);
    eraseCommitted(Remaining, Tail, R);
    if (R.Status == RunStatus::Success)
      return;
    Indicted = mapFailedChunk(R, Tail);
  }
}

RunResult RecoveringLoopRunner::runFreshEngine(const ExecutorConfig &SubConfig,
                                               const LoopSpec &Sub) {
  const std::unique_ptr<Executor> Exec = makeParallelEngine(Engine, SubConfig);
  RunResult R = Exec->run(Sub);
  R.Stats.addChildUsage(Exec->release());
  return R;
}

RunResult
RecoveringLoopRunner::runChunksParallel(const LoopSpec &Spec,
                                        const std::vector<int64_t> &Chunks,
                                        int64_t Cf) {
  const int64_t N = Spec.NumIterations;
  LoopSpec Sub;
  Sub.Name = Spec.Name + ".salvage";
  // Pad to whole chunks; the body guards the final partial chunk.
  Sub.NumIterations = static_cast<int64_t>(Chunks.size()) * Cf;
  Sub.Reductions = Spec.Reductions;
  const auto Body = Spec.Body;
  const std::vector<int64_t> List = Chunks;
  Sub.Body = [Body, List, Cf, N](TxnContext &Ctx, int64_t I) {
    const int64_t Orig = List[static_cast<size_t>(I / Cf)] * Cf + I % Cf;
    if (Orig < N)
      Body(Ctx, Orig);
  };
  const auto ParentRemap = Spec.FaultRemap;
  Sub.FaultRemap = [List, Cf, N, ParentRemap](int64_t C, int64_t,
                                              int64_t) -> FaultCoords {
    if (C < 0 || static_cast<size_t>(C) >= List.size())
      return FaultCoords{C, C * Cf, C * Cf};
    const int64_t Orig = List[static_cast<size_t>(C)];
    FaultCoords FC{Orig, Orig * Cf, std::min<int64_t>((Orig + 1) * Cf, N)};
    if (ParentRemap)
      FC = ParentRemap(FC.Chunk, FC.FirstIter, FC.LastIter);
    return FC;
  };
  ExecutorConfig SubConfig = Config;
  SubConfig.Params.ChunkFactor = Cf;
  // The sub-run numbers chunks locally (positions into \p Chunks); letting
  // it journal would record coordinates a restart cannot interpret. Journal
  // here instead, in original coordinates, after the engine validated and
  // applied each chunk.
  SubConfig.Journal = nullptr;
  RunResult R = runFreshEngine(SubConfig, Sub);
  Accumulated.mergeTrace(R);
  Accumulated.Stats.merge(R.Stats);
  if (Config.Journal)
    for (int64_t Local : R.CommitOrder) {
      if (Local < 0 || static_cast<size_t>(Local) >= List.size())
        continue;
      const int64_t Orig = List[static_cast<size_t>(Local)];
      Config.Journal->appendRange(Orig, Orig * Cf,
                                  std::min<int64_t>((Orig + 1) * Cf, N));
    }
  return R;
}

void RecoveringLoopRunner::resolveChunk(const LoopSpec &Spec, int64_t Chunk,
                                        int64_t Cf) {
  const int64_t First = Chunk * Cf;
  const int64_t Last = std::min<int64_t>(First + Cf, Spec.NumIterations);
  // Tier 1: the indicted chunk alone, speculatively, on a fresh solo
  // engine — a transient fault heals here without any sequential work.
  for (unsigned Attempt = 1; Attempt <= Config.SalvageAttempts; ++Attempt) {
    if (budgetExpired())
      break;
    backoff(Chunk, Attempt);
    traceLadderEvent(TraceEventKind::Salvage, Chunk, /*Arg0=*/Attempt,
                     /*Arg1=*/static_cast<uint64_t>(Last - First));
    if (runRangeSolo(Spec, Chunk, First, Last)) {
      ++Accumulated.Stats.SalvagedChunks;
      return;
    }
  }
  // Tier 2: shrink the blast radius.
  bisect(Spec, Chunk, First, Last, /*Depth=*/0);
}

void RecoveringLoopRunner::bisect(const LoopSpec &Spec, int64_t Chunk,
                                  int64_t First, int64_t Last,
                                  unsigned Depth) {
  if (Last - First <= 1 || Depth >= Config.BisectionDepthLimit ||
      budgetExpired()) {
    quarantineRange(Spec, Chunk, First, Last);
    return;
  }
  traceLadderEvent(TraceEventKind::Bisect, Chunk,
                   /*Arg0=*/static_cast<uint64_t>(First),
                   /*Arg1=*/static_cast<uint64_t>(Last));
  ++Accumulated.Stats.BisectionRounds;
  const int64_t Mid = First + (Last - First) / 2;
  const int64_t Halves[2][2] = {{First, Mid}, {Mid, Last}};
  for (const auto &H : Halves) {
    if (!budgetExpired() && runRangeSolo(Spec, Chunk, H[0], H[1]))
      ++Accumulated.Stats.SalvagedChunks;
    else
      bisect(Spec, Chunk, H[0], H[1], Depth + 1);
  }
}

bool RecoveringLoopRunner::runRangeSolo(const LoopSpec &Spec, int64_t Chunk,
                                        int64_t First, int64_t Last) {
  const int64_t Len = Last - First;
  if (Len <= 0)
    return true;
  LoopSpec Sub;
  Sub.Name = Spec.Name + ".solo";
  Sub.NumIterations = Len;
  Sub.Reductions = Spec.Reductions;
  const auto Body = Spec.Body;
  Sub.Body = [Body, First](TxnContext &Ctx, int64_t I) {
    Body(Ctx, First + I);
  };
  const auto ParentRemap = Spec.FaultRemap;
  Sub.FaultRemap = [Chunk, First, ParentRemap](int64_t, int64_t F,
                                               int64_t L) -> FaultCoords {
    // The whole solo run is one local chunk; sticky chunk faults keep
    // striking the original chunk index, iteration faults only the
    // fragments that still cover their iteration.
    FaultCoords FC{Chunk, First + F, First + L};
    if (ParentRemap)
      FC = ParentRemap(FC.Chunk, FC.FirstIter, FC.LastIter);
    return FC;
  };
  ExecutorConfig SubConfig = Config;
  SubConfig.NumWorkers = 1;
  SubConfig.Params.ChunkFactor = Len;
  // Fail fast: the ladder itself supervises retries.
  SubConfig.ChunkFaultRetryLimit = 0;
  // Local coordinates again — journal the original range on success.
  SubConfig.Journal = nullptr;
  RunResult R = runFreshEngine(SubConfig, Sub);
  Accumulated.mergeTrace(R);
  Accumulated.Stats.merge(R.Stats);
  if (R.Status != RunStatus::Success)
    return false;
  if (Config.Journal)
    Config.Journal->appendRange(Chunk, First, Last);
  return true;
}

void RecoveringLoopRunner::backoff(int64_t Chunk, unsigned Attempt) {
  if (Attempt < 2 || Config.SalvageBackoffNs == 0)
    return;
  const uint64_t Base = Config.SalvageBackoffNs
                        << std::min(Attempt - 2u, 20u);
  // Jitter is a pure function of (seed, chunk, attempt): same-seed replays
  // back off identically, keeping whole-run traces deterministic.
  SplitMix64 Rng(Config.SalvageSeed ^
                 (static_cast<uint64_t>(Chunk) * 0x9e3779b97f4a7c15ULL) ^
                 Attempt);
  const uint64_t WaitNs = Base + Rng.next() % Config.SalvageBackoffNs;
  struct timespec Ts;
  Ts.tv_sec = static_cast<time_t>(WaitNs / 1000000000ULL);
  Ts.tv_nsec = static_cast<long>(WaitNs % 1000000000ULL);
  ::nanosleep(&Ts, nullptr);
  // The wait is ladder overhead; charge it against the outer budgets.
  Accumulated.Stats.RealTimeNs += WaitNs;
  Accumulated.Stats.SimTimeNs += WaitNs;
}

void RecoveringLoopRunner::quarantineRange(const LoopSpec &Spec,
                                           int64_t Chunk, int64_t First,
                                           int64_t Last) {
  if (Last <= First)
    return;
  Accumulated.Stats.Recovered = true;
  // Passthrough context: reads and writes go straight to committed memory,
  // and with no runtime parameters reduction updates execute as their
  // direct read-modify-write — sequential semantics.
  TxnContext Ctx(ContextMode::Passthrough, /*Params=*/nullptr, &Spec,
                 Allocator, /*Worker=*/0);
  const bool TraceEvents = Config.Trace >= TraceLevel::Events;
  const uint64_t TraceT0 = TraceEvents ? traceNowNs() : 0;
  const uint64_t Start = nowNs();
  for (int64_t I = First; I != Last; ++I)
    Spec.Body(Ctx, I);
  const uint64_t Elapsed = nowNs() - Start;
  if (TraceEvents)
    Accumulated.TraceEvents.push_back(
        {TraceT0, Elapsed, Chunk,
         /*Arg0=*/static_cast<uint64_t>(Last - First), /*Arg1=*/0,
         /*Worker=*/0, TraceEventKind::Quarantine});
  Accumulated.Stats.RealTimeNs += Elapsed;
  Accumulated.Stats.SimTimeNs += Elapsed;
  Accumulated.Stats.BytesRead += Ctx.bytesRead();
  Accumulated.Stats.BytesWritten += Ctx.bytesWritten();
  Accumulated.Stats.QuarantinedIterations +=
      static_cast<uint64_t>(Last - First);
  // The writes went straight to committed memory: journal the fragment so
  // a restart never re-executes it.
  if (Config.Journal)
    Config.Journal->appendRange(Chunk, First, Last);
}

void RecoveringLoopRunner::fullTailSequential(
    const LoopSpec &Spec, const std::vector<int64_t> &Chunks, int64_t Cf) {
  Accumulated.Stats.Recovered = true;
  const int64_t N = Spec.NumIterations;
  if (N == 0 || Chunks.empty())
    return;
  TxnContext Ctx(ContextMode::Passthrough, /*Params=*/nullptr, &Spec,
                 Allocator, /*Worker=*/0);
  const bool TraceEvents = Config.Trace >= TraceLevel::Events;
  const uint64_t TraceT0 = TraceEvents ? traceNowNs() : 0;
  const uint64_t Start = nowNs();
  uint64_t Iters = 0;
  for (int64_t C : Chunks) {
    const int64_t First = C * Cf;
    const int64_t Last = std::min<int64_t>(First + Cf, N);
    for (int64_t I = First; I != Last; ++I)
      Spec.Body(Ctx, I);
    Iters += static_cast<uint64_t>(Last > First ? Last - First : 0);
    // Per-chunk frames: a crash mid-floor loses at most one chunk of
    // sequential work (modulo the sync policy's window).
    if (Config.Journal && Last > First)
      Config.Journal->appendRange(C, First, Last);
  }
  const uint64_t Elapsed = nowNs() - Start;
  if (TraceEvents)
    Accumulated.TraceEvents.push_back({TraceT0, Elapsed, /*Chunk=*/-1,
                                       /*Arg0=*/Iters, /*Arg1=*/0,
                                       /*Worker=*/0,
                                       TraceEventKind::Recovery});
  Accumulated.Stats.RealTimeNs += Elapsed;
  Accumulated.Stats.SimTimeNs += Elapsed;
  Accumulated.Stats.BytesRead += Ctx.bytesRead();
  Accumulated.Stats.BytesWritten += Ctx.bytesWritten();
  Accumulated.Stats.RecoveredIterations += Iters;
}

void RecoveringLoopRunner::traceLadderEvent(TraceEventKind Kind,
                                            int64_t Chunk, uint64_t Arg0,
                                            uint64_t Arg1) {
  if (Config.Trace < TraceLevel::Events)
    return;
  Accumulated.TraceEvents.push_back(
      {traceNowNs(), /*DurNs=*/0, Chunk, Arg0, Arg1, /*Worker=*/0, Kind});
}

bool RecoveringLoopRunner::resumeRecovered(const LoopSpec &Spec,
                                           const RecoveredInvocation &Rec) {
  CommitJournal *J = Config.Journal;
  const int64_t N = Spec.NumIterations;
  if (Rec.Schedule != 0)
    Accumulated.ScheduleUsed = static_cast<ScheduleKind>(Rec.Schedule);
  // Replay the committed prefix by re-execution, in journal order. The
  // recorded order is a serialization the loop's annotations already
  // declared acceptable, so re-executing it sequentially against the
  // deterministically rebuilt initial state reproduces the committed
  // memory image exactly. The logged write bytes are NOT applied — they
  // hold pre-restart virtual addresses (see CommitJournal.h).
  {
    TxnContext Ctx(ContextMode::Passthrough, /*Params=*/nullptr, &Spec,
                   Allocator, /*Worker=*/0);
    const uint64_t Start = nowNs();
    for (const JournalFrame &F : Rec.Commits) {
      const int64_t Last = std::min<int64_t>(F.LastIter, N);
      for (int64_t I = F.FirstIter; I < Last; ++I)
        Spec.Body(Ctx, I);
      ++Accumulated.Stats.ReplayedChunks;
    }
    const uint64_t Elapsed = nowNs() - Start;
    Accumulated.Stats.RecoveryNs += Elapsed;
    Accumulated.Stats.RealTimeNs += Elapsed;
    Accumulated.Stats.SimTimeNs += Elapsed;
    Accumulated.Stats.BytesRead += Ctx.bytesRead();
    Accumulated.Stats.BytesWritten += Ctx.bytesWritten();
    if (Config.Metrics)
      Accumulated.Metrics.record(HistogramId::JournalReplayNs, Elapsed);
    traceLadderEvent(TraceEventKind::Recovery, /*Chunk=*/-1,
                     /*Arg0=*/Rec.Commits.size(),
                     /*Arg1=*/static_cast<uint64_t>(Rec.Finished));
  }
  if (Rec.Finished) {
    drainJournalStats();
    return true;
  }

  // The invocation was cut short: finish it. Geometry comes from the
  // LoopBegin frame, not the live config — the crashed run may have
  // resolved a different schedule than this one would.
  const int64_t Cf = Rec.ChunkFactor > 0 ? Rec.ChunkFactor : (N > 0 ? N : 1);
  const int64_t NumChunks = N > 0 ? (N + Cf - 1) / Cf : 0;
  // Committed coverage per chunk. Frames can be sub-chunk fragments
  // (bisection halves, quarantined single iterations), so coverage is
  // interval arithmetic, not a chunk bitmap.
  struct IterRange {
    int64_t First, Last;
  };
  std::vector<std::vector<IterRange>> Cover(static_cast<size_t>(NumChunks));
  for (const JournalFrame &F : Rec.Commits) {
    int64_t First = std::max<int64_t>(F.FirstIter, 0);
    const int64_t Last = std::min<int64_t>(F.LastIter, N);
    while (First < Last) {
      const int64_t C = First / Cf;
      const int64_t End = std::min<int64_t>(Last, (C + 1) * Cf);
      if (C >= 0 && C < NumChunks)
        Cover[static_cast<size_t>(C)].push_back({First, End});
      First = End;
    }
  }
  // Partially-committed chunks finish first, sequentially, in ascending
  // order: under InOrder they hold the oldest uncommitted iterations, so
  // the splice stays a program-order prefix. Untouched chunks then re-run
  // in parallel below.
  std::vector<int64_t> Remaining;
  TxnContext GapCtx(ContextMode::Passthrough, /*Params=*/nullptr, &Spec,
                    Allocator, /*Worker=*/0);
  const uint64_t GapStart = nowNs();
  uint64_t GapIters = 0;
  for (int64_t C = 0; C != NumChunks; ++C) {
    auto &Rs = Cover[static_cast<size_t>(C)];
    if (Rs.empty()) {
      Remaining.push_back(C);
      continue;
    }
    std::sort(Rs.begin(), Rs.end(),
              [](const IterRange &A, const IterRange &B) {
                return A.First < B.First;
              });
    const int64_t ChunkLast = std::min<int64_t>((C + 1) * Cf, N);
    int64_t Pos = C * Cf;
    const auto RunGap = [&](int64_t GFirst, int64_t GLast) {
      if (GLast <= GFirst)
        return;
      for (int64_t I = GFirst; I != GLast; ++I)
        Spec.Body(GapCtx, I);
      GapIters += static_cast<uint64_t>(GLast - GFirst);
      if (J)
        J->appendRange(C, GFirst, GLast);
    };
    for (const IterRange &R : Rs) {
      RunGap(Pos, R.First);
      Pos = std::max(Pos, R.Last);
    }
    RunGap(Pos, ChunkLast);
  }
  if (GapIters != 0) {
    Accumulated.Stats.Recovered = true;
    Accumulated.Stats.RecoveredIterations += GapIters;
    const uint64_t Elapsed = nowNs() - GapStart;
    Accumulated.Stats.RecoveryNs += Elapsed;
    Accumulated.Stats.RealTimeNs += Elapsed;
    Accumulated.Stats.SimTimeNs += Elapsed;
    Accumulated.Stats.BytesRead += GapCtx.bytesRead();
    Accumulated.Stats.BytesWritten += GapCtx.bytesWritten();
  }

  if (!Remaining.empty())
    completeRemaining(Spec, std::move(Remaining), Cf);
  if (Accumulated.Status == RunStatus::Interrupted) {
    // Interrupted again before finishing: keep the invocation open for the
    // next restart, flush what did commit.
    runShutdownFlushHook();
    drainJournalStats();
    return false;
  }
  if (J)
    J->endInvocation();
  drainJournalStats();
  return true;
}

void RecoveringLoopRunner::completeRemaining(const LoopSpec &Spec,
                                             std::vector<int64_t> Remaining,
                                             int64_t Cf) {
  // Same round cap as runLadder: every round either finishes the batch or
  // resolves one indicted chunk, but termination must not depend on that.
  int64_t RoundsLeft = 2 * static_cast<int64_t>(Remaining.size()) + 4;
  while (!Remaining.empty()) {
    if (!Config.EnableSalvage || --RoundsLeft <= 0 || budgetExpired()) {
      fullTailSequential(Spec, Remaining, Cf);
      return;
    }
    const std::vector<int64_t> Batch = Remaining;
    const RunResult R = runChunksParallel(Spec, Batch, Cf);
    eraseCommitted(Remaining, Batch, R);
    if (R.Status == RunStatus::Success)
      return;
    if (R.Status == RunStatus::Interrupted) {
      // Stop, don't recover — the caller flushes the journal.
      Accumulated.Status = RunStatus::Interrupted;
      Accumulated.Detail = R.Detail;
      return;
    }
    const int64_t Indicted = mapFailedChunk(R, Batch);
    if (Indicted < 0 ||
        !std::binary_search(Remaining.begin(), Remaining.end(), Indicted)) {
      fullTailSequential(Spec, Remaining, Cf);
      return;
    }
    resolveChunk(Spec, Indicted, Cf);
    Remaining.erase(
        std::remove(Remaining.begin(), Remaining.end(), Indicted),
        Remaining.end());
  }
}

void RecoveringLoopRunner::drainJournalStats() {
  if (Config.Journal)
    Config.Journal->drainStats(Accumulated.Stats,
                               Config.Metrics ? &Accumulated.Metrics
                                              : nullptr);
}
