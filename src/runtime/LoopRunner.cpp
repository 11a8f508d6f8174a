//===- runtime/LoopRunner.cpp ---------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/LoopRunner.h"

#include "runtime/CommitJournal.h"
#include "runtime/ForkJoinExecutor.h"
#include "runtime/LockstepExecutor.h"
#include "runtime/PipelineExecutor.h"
#include "runtime/ShutdownSupervisor.h"
#include "runtime/StagePipelineExecutor.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <ctime>
#include <vector>

using namespace alter;

namespace {

/// Ladder tier 1: solo speculative re-executions of the indicted chunk
/// before it is bisected.
constexpr unsigned SoloAttempts = 2;

/// Ladder tier 2: recursive halvings of a failing range. A range still
/// failing at this depth is quarantined.
constexpr unsigned MaxBisectionDepth = 16;

/// Tier-1 backoff: the second attempt first waits BackoffBaseNs plus a
/// jitter in [0, BackoffBaseNs) seeded by (BackoffSeed, chunk, attempt).
constexpr uint64_t BackoffBaseNs = 200'000;  // 0.2ms
constexpr uint64_t BackoffSeed = 0x53414c56; // "SALV"

} // namespace

std::unique_ptr<Executor> alter::makeParallelEngine(ParallelEngine Engine,
                                                    const ExecutorConfig &Config) {
  switch (Engine) {
  case ParallelEngine::ForkJoin:
    return std::make_unique<ForkJoinExecutor>(Config);
  case ParallelEngine::Pipeline:
    return std::make_unique<PipelineExecutor>(Config);
  case ParallelEngine::Threaded:
    return std::make_unique<LockstepExecutor>(Config);
  }
  ALTER_UNREACHABLE("covered switch");
}

const char *alter::schedulePolicyName(SchedulePolicy Policy) {
  switch (Policy) {
  case SchedulePolicy::Auto:
    return "auto";
  case SchedulePolicy::Chunked:
    return "chunked";
  case SchedulePolicy::Sequential:
    return "sequential";
  }
  ALTER_UNREACHABLE("covered switch");
}

bool alter::parseSchedulePolicy(const std::string &Text,
                                SchedulePolicy &Policy) {
  if (Text == "auto")
    Policy = SchedulePolicy::Auto;
  else if (Text == "chunked")
    Policy = SchedulePolicy::Chunked;
  else if (Text == "sequential")
    Policy = SchedulePolicy::Sequential;
  else
    return false;
  return true;
}

LoopRunner::~LoopRunner() = default;

void LoopRunner::absorb(const RunResult &R) {
  Accumulated.Stats.merge(R.Stats);
  Accumulated.mergeTrace(R);
  Accumulated.Metrics.merge(R.Metrics);
}

bool LoopRunner::fold(RunResult R) {
  absorb(R);
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
          DeadlineFactor * static_cast<double>(SeqBaselineNs)) {
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
                                           ExecutorConfig Config)
    : Engine(Engine), Config(std::move(Config)),
      Primary(makeParallelEngine(Engine, this->Config)) {}

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
    const int64_t WholeCf = std::max<int64_t>(Spec.NumIterations, 1);
    if (J)
      J->beginInvocation(Spec.Name, Spec.NumIterations, WholeCf,
                         static_cast<uint8_t>(ScheduleKind::Sequential));
    if (!runFloor(Spec, {0}, WholeCf))
      return stopInvocation();
    closeInvocation();
    return true;
  }
  if (Config.Schedule == SchedulePolicy::Sequential) {
    // Chosen, not degraded-to: run the reference engine outright.
    SequentialExecutor Seq(Config.Allocator);
    Accumulated.ScheduleUsed = ScheduleKind::Sequential;
    if (J)
      J->beginInvocation(Spec.Name, Spec.NumIterations,
                         std::max<int64_t>(Spec.NumIterations, 1),
                         static_cast<uint8_t>(ScheduleKind::Sequential));
    const bool Ok = fold(Seq.run(Spec));
    if (J && Ok) {
      // One frame for the whole loop: sequential execution commits all-or-
      // nothing from the journal's point of view.
      if (Spec.NumIterations > 0)
        J->appendCommit(0, 0, Spec.NumIterations);
      J->endInvocation();
    }
    drainJournalStats();
    return Ok;
  }
  // Schedule selection: a declared stage split runs staged whenever there
  // is a replica beside the sequential lane.
  const bool UseStaged = Config.Schedule == SchedulePolicy::Auto &&
                         Spec.Stage.valid() && Config.NumWorkers >= 2;
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
  // The stage pipeline indicts chunks and reports CommitOrder exactly like
  // the chunked engines, so the same loop finishes what either left; its
  // sub-runs speculate chunked — re-staging a failed plan is pointless.
  std::unique_ptr<Executor> Staged;
  if (UseStaged)
    Staged = std::make_unique<StagePipelineExecutor>(Config);
  Executor &Exec = Staged ? *Staged : *Primary;
  Accumulated.ScheduleUsed =
      Staged ? ScheduleKind::Staged : ScheduleKind::Chunked;
  Exec.setAccumulatedSimNs(Accumulated.Stats.SimTimeNs);
  if (!finishRun(Spec, Exec.run(Spec)))
    return stopInvocation();
  closeInvocation();
  if (Config.SeqBaselineNs != 0 &&
      static_cast<double>(Accumulated.Stats.SimTimeNs) >
          DeadlineFactor * static_cast<double>(Config.SeqBaselineNs)) {
    // Completion stays guaranteed, but the time budget is spent: later
    // invocations go straight to sequential execution.
    SequentialMode = true;
    Accumulated.Stats.Recovered = true;
    Accumulated.Detail = "switched to sequential execution after the "
                         "accumulated deadline expired";
  }
  return true;
}

bool RecoveringLoopRunner::finishRun(const LoopSpec &Spec, RunResult R) {
  if (R.ChunkFactorUsed > 0)
    Accumulated.ChunkFactorUsed = R.ChunkFactorUsed;
  absorb(R);
  if (R.Status == RunStatus::Success)
    return true;
  if (R.Status == RunStatus::Interrupted) {
    // The engine already reaped its children; surface its detail as-is.
    Accumulated.Status = RunStatus::Interrupted;
    Accumulated.Detail = std::move(R.Detail);
    return false;
  }
  if (!R.Detail.empty())
    Accumulated.Detail = "recovered after: " + R.Detail;
  // Engines that chunk always report ChunkFactorUsed; a result without one
  // committed nothing, so the whole loop is a single uncommitted chunk.
  const int64_t N = Spec.NumIterations;
  const int64_t Cf =
      R.ChunkFactorUsed > 0 ? R.ChunkFactorUsed : std::max<int64_t>(N, 1);
  const int64_t NumChunks = (N + Cf - 1) / Cf;
  std::vector<bool> Done(static_cast<size_t>(NumChunks), false);
  for (int64_t C : R.CommitOrder)
    if (C >= 0 && C < NumChunks)
      Done[static_cast<size_t>(C)] = true;
  std::vector<int64_t> Remaining;
  for (int64_t C = 0; C != NumChunks; ++C)
    if (!Done[static_cast<size_t>(C)])
      Remaining.push_back(C);
  return finishChunks(Spec, std::move(Remaining), Cf, R.FailedChunk);
}

bool RecoveringLoopRunner::budgetExpired() const {
  if (Config.SeqBaselineNs == 0)
    return false;
  return static_cast<double>(Accumulated.Stats.RealTimeNs) >
         DeadlineFactor * static_cast<double>(Config.SeqBaselineNs);
}

bool RecoveringLoopRunner::finishChunks(const LoopSpec &Spec,
                                        std::vector<int64_t> Remaining,
                                        int64_t Cf, int64_t Indicted) {
  const int64_t N = Spec.NumIterations;
  // Runs \p Chunks in parallel on a fresh engine and drops what it
  // committed from Remaining. Returns NoFailure on success, else the chunk
  // the failure indicted (-1: none, e.g. a timeout or a shutdown request).
  const auto RunParallel = [&](const std::vector<int64_t> &Chunks) {
    std::vector<IterRange> Ranges;
    for (int64_t C : Chunks)
      Ranges.push_back({C, C * Cf, std::min<int64_t>(C * Cf + Cf, N)});
    const RunResult R = runSubRun(Spec, Ranges, /*Solo=*/false);
    for (int64_t Local : R.CommitOrder)
      Remaining.erase(std::lower_bound(Remaining.begin(), Remaining.end(),
                                       Chunks[static_cast<size_t>(Local)]));
    if (R.Status == RunStatus::Success)
      return NoFailure;
    return R.FailedChunk >= 0 ? Chunks[static_cast<size_t>(R.FailedChunk)]
                              : int64_t{-1};
  };
  // Hard cap on ladder rounds: each round either resolves the indicted
  // chunk or strictly lowers the indictment, but a pathological fault plan
  // (every chunk poisoned) must still terminate promptly.
  int64_t RoundsLeft = 2 * ((N + Cf - 1) / Cf) + 4;

  while (!Remaining.empty()) {
    if (shutdownRequested())
      return false;
    if (Indicted == NoFailure) {
      // Nothing indicted: everything uncommitted runs in parallel.
      const std::vector<int64_t> All = Remaining;
      Indicted = RunParallel(All);
      continue;
    }
    const auto At =
        std::lower_bound(Remaining.begin(), Remaining.end(), Indicted);
    if (At == Remaining.end() || *At != Indicted || --RoundsLeft <= 0 ||
        budgetExpired())
      // The floor: the failure has no culprit left (Timeout), or the round
      // cap or the budget is spent — finish sequentially.
      return runFloor(Spec, Remaining, Cf);
    // The pipeline's InOrder retirement, and a restarted invocation's
    // parallel run, can indict a chunk that is not the oldest uncommitted
    // one. Older uncommitted chunks are innocent; re-run them in parallel
    // first so InOrder splice semantics (committed chunks form a
    // program-order prefix) survive the salvage.
    const std::vector<int64_t> Older(Remaining.begin(), At);
    if (!Older.empty()) {
      const int64_t Sick = RunParallel(Older);
      if (Sick != NoFailure) {
        // An older chunk is also sick: it becomes the indicted one.
        Indicted = Sick;
        continue;
      }
    }
    if (!resolveChunk(Spec, Indicted, Cf))
      return false;
    Remaining.erase(
        std::lower_bound(Remaining.begin(), Remaining.end(), Indicted));
    // The indicted chunk is out of the way: the rest runs in parallel.
    Indicted = NoFailure;
  }
  return true;
}

bool RecoveringLoopRunner::resolveChunk(const LoopSpec &Spec, int64_t Chunk,
                                        int64_t Cf) {
  const int64_t First = Chunk * Cf;
  const int64_t Last = std::min<int64_t>(First + Cf, Spec.NumIterations);
  // Tier 1: the indicted chunk alone, speculatively, on a fresh solo
  // engine — a transient fault heals here without any sequential work.
  for (unsigned Attempt = 1; Attempt <= SoloAttempts; ++Attempt) {
    if (shutdownRequested())
      return false;
    if (budgetExpired())
      break;
    backoff(Chunk, Attempt);
    traceLadderEvent(TraceEventKind::Salvage, Chunk, /*Arg0=*/Attempt,
                     /*Arg1=*/static_cast<uint64_t>(Last - First));
    if (runSubRun(Spec, {{Chunk, First, Last}}, /*Solo=*/true).succeeded()) {
      ++Accumulated.Stats.SalvagedChunks;
      return true;
    }
  }
  // Tier 2: shrink the blast radius.
  return bisect(Spec, Chunk, First, Last, /*Depth=*/0);
}

bool RecoveringLoopRunner::bisect(const LoopSpec &Spec, int64_t Chunk,
                                  int64_t First, int64_t Last,
                                  unsigned Depth) {
  if (shutdownRequested())
    return false;
  if (Last - First <= 1 || Depth >= MaxBisectionDepth || budgetExpired()) {
    // Tier 3: quarantine the fragment, in place.
    Accumulated.Stats.Recovered = true;
    const InPlaceRun Run =
        runInPlace(Spec, {{Chunk, First, Last}}, /*Journal=*/true);
    Accumulated.Stats.QuarantinedIterations += Run.Iters;
    traceLadderEvent(TraceEventKind::Quarantine, Chunk, /*Arg0=*/Run.Iters,
                     /*Arg1=*/0, &Run);
    return !Run.Stopped;
  }
  traceLadderEvent(TraceEventKind::Bisect, Chunk,
                   /*Arg0=*/static_cast<uint64_t>(First),
                   /*Arg1=*/static_cast<uint64_t>(Last));
  ++Accumulated.Stats.BisectionRounds;
  const int64_t Mid = First + (Last - First) / 2;
  const int64_t Halves[2][2] = {{First, Mid}, {Mid, Last}};
  for (const auto &H : Halves) {
    if (shutdownRequested())
      return false;
    if (!budgetExpired() &&
        runSubRun(Spec, {{Chunk, H[0], H[1]}}, /*Solo=*/true).succeeded())
      ++Accumulated.Stats.SalvagedChunks;
    else if (!bisect(Spec, Chunk, H[0], H[1], Depth + 1))
      return false;
  }
  return true;
}

void RecoveringLoopRunner::backoff(int64_t Chunk, unsigned Attempt) {
  if (Attempt < 2)
    return;
  // Jitter is a pure function of (seed, chunk, attempt): same-seed replays
  // back off identically, keeping whole-run traces deterministic.
  SplitMix64 Rng(BackoffSeed ^
                 (static_cast<uint64_t>(Chunk) * 0x9e3779b97f4a7c15ULL) ^
                 Attempt);
  const uint64_t WaitNs = BackoffBaseNs + Rng.next() % BackoffBaseNs;
  struct timespec Ts;
  Ts.tv_sec = static_cast<time_t>(WaitNs / 1000000000ULL);
  Ts.tv_nsec = static_cast<long>(WaitNs % 1000000000ULL);
  ::nanosleep(&Ts, nullptr);
  // The wait is ladder overhead; charge it against the outer budgets.
  Accumulated.Stats.RealTimeNs += WaitNs;
  Accumulated.Stats.SimTimeNs += WaitNs;
}

RunResult
RecoveringLoopRunner::runSubRun(const LoopSpec &Spec,
                                const std::vector<IterRange> &Ranges,
                                bool Solo) {
  // Each range is one local chunk of Width iterations; the body skips the
  // padding past the end of a shorter range.
  int64_t Width = 1;
  for (const IterRange &R : Ranges)
    Width = std::max(Width, R.Last - R.First);
  LoopSpec Sub;
  Sub.Name = Spec.Name + (Solo ? ".solo" : ".salvage");
  Sub.NumIterations = static_cast<int64_t>(Ranges.size()) * Width;
  Sub.Reductions = Spec.Reductions;
  const auto Body = Spec.Body;
  Sub.Body = [Body, Ranges, Width](TxnContext &Ctx, int64_t I) {
    const IterRange &R = Ranges[static_cast<size_t>(I / Width)];
    const int64_t Orig = R.First + I % Width;
    if (Orig < R.Last)
      Body(Ctx, Orig);
  };
  // Fault points address the original work: a local chunk is its range's
  // chunk, and a local iteration span the original iterations it covers,
  // so sticky chunk faults keep striking the original chunk index and
  // iteration faults only the fragments that still cover their iteration.
  const auto ParentRemap = Spec.FaultRemap;
  Sub.FaultRemap = [Ranges, Width, ParentRemap](int64_t C, int64_t F,
                                                int64_t L) -> FaultCoords {
    const IterRange &R = Ranges[static_cast<size_t>(C)];
    const int64_t Base = C * Width;
    FaultCoords FC{R.Chunk, R.First + (F - Base),
                   std::min<int64_t>(R.First + (L - Base), R.Last)};
    if (ParentRemap)
      FC = ParentRemap(FC.Chunk, FC.FirstIter, FC.LastIter);
    return FC;
  };
  ExecutorConfig SubConfig = Config;
  SubConfig.Params.ChunkFactor = Width;
  if (Solo) {
    SubConfig.NumWorkers = 1;
    SubConfig.ChunkFaultRetryLimit = 0;
    // One range on one worker forks one child. The ring's warm pool would
    // fork a template only to fork that child from it, map a ring, and
    // then wait in release() for the template's teardown; the cold pipe
    // path forks the child straight from the parent.
    SubConfig.Transport = TransportKind::Pipe;
  }
  // The sub-run numbers its chunks locally; letting it journal would record
  // coordinates a restart cannot interpret. Journal here instead, in
  // original coordinates, after the engine validated and applied each one.
  SubConfig.Journal = nullptr;
  // The ladder contains faults, so its sub-runs always fork.
  const std::unique_ptr<Executor> Exec = makeParallelEngine(
      Engine == ParallelEngine::Threaded ? ParallelEngine::Pipeline : Engine,
      SubConfig);
  RunResult R = Exec->run(Sub);
  R.Stats.addChildUsage(Exec->release());
  absorb(R);
  if (Config.Journal)
    for (int64_t Local : R.CommitOrder) {
      const IterRange &Done = Ranges[static_cast<size_t>(Local)];
      Config.Journal->appendCommit(Done.Chunk, Done.First, Done.Last);
    }
  return R;
}

RecoveringLoopRunner::InPlaceRun
RecoveringLoopRunner::runInPlace(const LoopSpec &Spec,
                                 const std::vector<IterRange> &Ranges,
                                 bool Journal) {
  // Passthrough context: reads and writes go straight to committed memory,
  // and with no runtime parameters reduction updates execute as their
  // direct read-modify-write — sequential semantics.
  TxnContext Ctx(ContextMode::Passthrough, /*Params=*/nullptr, &Spec,
                 Config.Allocator, /*Worker=*/0);
  InPlaceRun Run;
  Run.TraceT0 = Config.Trace >= TraceLevel::Events ? traceNowNs() : 0;
  const uint64_t Start = nowNs();
  for (const IterRange &R : Ranges) {
    int64_t I = R.First;
    while (I < R.Last && !shutdownRequested())
      Spec.Body(Ctx, I++);
    if (I > R.First) {
      Run.Iters += static_cast<uint64_t>(I - R.First);
      // The writes went straight to committed memory: journal what ran so
      // a restart never re-executes it. One frame per range, so a crash
      // loses at most one range of sequential work (modulo the sync
      // window).
      if (Journal && Config.Journal)
        Config.Journal->appendCommit(R.Chunk, R.First, I);
    }
    if ((Run.Stopped = I < R.Last))
      break;
  }
  Run.Ns = nowNs() - Start;
  Accumulated.Stats.RealTimeNs += Run.Ns;
  Accumulated.Stats.SimTimeNs += Run.Ns;
  Accumulated.Stats.BytesRead += Ctx.bytesRead();
  Accumulated.Stats.BytesWritten += Ctx.bytesWritten();
  return Run;
}

bool RecoveringLoopRunner::runFloor(const LoopSpec &Spec,
                                    const std::vector<int64_t> &Chunks,
                                    int64_t Cf) {
  Accumulated.Stats.Recovered = true;
  std::vector<IterRange> Ranges;
  for (int64_t C : Chunks)
    Ranges.push_back(
        {C, C * Cf, std::min<int64_t>(C * Cf + Cf, Spec.NumIterations)});
  const InPlaceRun Run = runInPlace(Spec, Ranges, /*Journal=*/true);
  Accumulated.Stats.RecoveredIterations += Run.Iters;
  traceLadderEvent(TraceEventKind::Recovery, /*Chunk=*/-1,
                   /*Arg0=*/Run.Iters, /*Arg1=*/0, &Run);
  return !Run.Stopped;
}

void RecoveringLoopRunner::traceLadderEvent(TraceEventKind Kind,
                                            int64_t Chunk, uint64_t Arg0,
                                            uint64_t Arg1,
                                            const InPlaceRun *Run) {
  if (Config.Trace < TraceLevel::Events || (Run && Run->Iters == 0))
    return;
  Accumulated.TraceEvents.push_back({Run ? Run->TraceT0 : traceNowNs(),
                                     Run ? Run->Ns : 0, Chunk, Arg0, Arg1,
                                     /*Worker=*/0, Kind});
}

bool RecoveringLoopRunner::resumeRecovered(const LoopSpec &Spec,
                                           const RecoveredInvocation &Rec) {
  const int64_t N = Spec.NumIterations;
  if (Rec.Schedule != 0)
    Accumulated.ScheduleUsed = static_cast<ScheduleKind>(Rec.Schedule);
  // Replay the committed prefix by re-execution, in journal order. The
  // recorded order is a serialization the loop's annotations already
  // declared acceptable, so re-executing it sequentially against the
  // deterministically rebuilt initial state reproduces the committed
  // memory image exactly (see CommitJournal.h).
  std::vector<IterRange> Replay;
  for (const JournalFrame &F : Rec.Commits)
    Replay.push_back({F.Chunk, F.FirstIter, std::min<int64_t>(F.LastIter, N)});
  const InPlaceRun Replayed = runInPlace(Spec, Replay, /*Journal=*/false);
  Accumulated.Stats.ReplayedChunks += Rec.Commits.size();
  Accumulated.Stats.RecoveryNs += Replayed.Ns;
  if (Config.Metrics)
    Accumulated.Metrics.record(HistogramId::JournalReplayNs, Replayed.Ns);
  traceLadderEvent(TraceEventKind::Recovery, /*Chunk=*/-1,
                   /*Arg0=*/Rec.Commits.size(),
                   /*Arg1=*/static_cast<uint64_t>(Rec.Finished));
  if (Replayed.Stopped)
    return stopInvocation();
  if (Rec.Finished) {
    drainJournalStats();
    return true;
  }

  // The invocation was cut short: finish it. Geometry comes from the
  // LoopBegin frame, not the live config — the crashed run may have
  // resolved a different schedule than this one would.
  const int64_t Cf =
      Rec.ChunkFactor > 0 ? Rec.ChunkFactor : std::max<int64_t>(N, 1);
  const int64_t NumChunks = (N + Cf - 1) / Cf;
  // Committed coverage per chunk. Frames can be sub-chunk fragments
  // (bisection halves, quarantined single iterations), so coverage is
  // interval arithmetic, not a chunk bitmap.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Cover(
      static_cast<size_t>(NumChunks));
  for (const JournalFrame &F : Rec.Commits) {
    int64_t First = std::max<int64_t>(F.FirstIter, 0);
    const int64_t Last = std::min<int64_t>(F.LastIter, N);
    while (First < Last) {
      const int64_t C = First / Cf;
      const int64_t End = std::min<int64_t>(Last, (C + 1) * Cf);
      Cover[static_cast<size_t>(C)].push_back({First, End});
      First = End;
    }
  }
  // Partially-committed chunks finish first, in place, in ascending order:
  // under InOrder they hold the oldest uncommitted iterations, so the
  // splice stays a program-order prefix. Untouched chunks then go through
  // the same loop that finishes a failed run.
  std::vector<IterRange> Gaps;
  std::vector<int64_t> Untouched;
  for (int64_t C = 0; C != NumChunks; ++C) {
    auto &Rs = Cover[static_cast<size_t>(C)];
    if (Rs.empty()) {
      Untouched.push_back(C);
      continue;
    }
    std::sort(Rs.begin(), Rs.end());
    int64_t Pos = C * Cf;
    for (const auto &[First, Last] : Rs) {
      if (Pos < First)
        Gaps.push_back({C, Pos, First});
      Pos = std::max(Pos, Last);
    }
    const int64_t ChunkLast = std::min<int64_t>((C + 1) * Cf, N);
    if (Pos < ChunkLast)
      Gaps.push_back({C, Pos, ChunkLast});
  }
  const InPlaceRun Gap = runInPlace(Spec, Gaps, /*Journal=*/true);
  if (Gap.Iters != 0) {
    Accumulated.Stats.Recovered = true;
    Accumulated.Stats.RecoveredIterations += Gap.Iters;
    Accumulated.Stats.RecoveryNs += Gap.Ns;
  }
  if (Gap.Stopped || !finishChunks(Spec, std::move(Untouched), Cf, NoFailure))
    return stopInvocation();
  closeInvocation();
  return true;
}

void RecoveringLoopRunner::closeInvocation() {
  if (Config.Journal)
    Config.Journal->endInvocation();
  drainJournalStats();
}

bool RecoveringLoopRunner::stopInvocation() {
  if (Accumulated.Status != RunStatus::Interrupted) {
    Accumulated.Status = RunStatus::Interrupted;
    Accumulated.Detail = strprintf(
        "interrupted by shutdown request (signal %d) while finishing "
        "uncommitted chunks",
        shutdownSignal());
  }
  runShutdownFlushHook();
  drainJournalStats();
  return false;
}

void RecoveringLoopRunner::drainJournalStats() {
  if (Config.Journal)
    Config.Journal->drainStats(Accumulated.Stats,
                               Config.Metrics ? &Accumulated.Metrics
                                              : nullptr);
}
