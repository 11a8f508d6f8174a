//===- runtime/ForkJoinExecutor.cpp ---------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ForkJoinExecutor.h"

#include "runtime/DispatchCore.h"
#include "runtime/Round.h"
#include "runtime/ShutdownSupervisor.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <vector>

using namespace alter;

namespace {

/// Real-time floor under the stall deadline: fork/exec jitter on a loaded
/// host must not masquerade as a stalled child when the sequential baseline
/// is tiny.
constexpr uint64_t MinStallGraceNs = 250'000'000; // 250ms

} // namespace

ForkJoinExecutor::ForkJoinExecutor(ExecutorConfig Config)
    : Config(std::move(Config)) {
  assert(this->Config.NumWorkers >= 1 && "need at least one worker");
  // Calibrate the modeled clock here, outside every timed run().
  CostModel::calibrated();
}

ChildRusage ForkJoinExecutor::release() {
  Parked.reap(/*Block=*/true);
  return Parked.takeUsage();
}

RunResult ForkJoinExecutor::run(const LoopSpec &Spec) {
  assert(Spec.Body && "loop has no body");
  // No child reuse here: round-local validation (resetRound + hasConflict)
  // cannot see commits older than the current round, which a reused
  // child's snapshot would predate. Every chunk re-forks warm.
  DispatchCore Core("forkjoin", Spec, Config, Parked, /*AllowReuse=*/false);
  RunResult &Result = Core.Result;
  const unsigned P = Config.NumWorkers;

  std::deque<int64_t> Pending;
  for (int64_t C = 0; C != Core.NumChunks; ++C)
    Pending.push_back(C);

  // Effective parallelism: halved (never below 1) after consecutive rounds
  // in which EVERY launch failed — fork/pipe exhaustion at full width.
  unsigned ActiveP = P;
  unsigned AllFailedRounds = 0;

  // Real-time stall deadline: children run on real CPUs, so the 10x rule
  // has to bound real time here. On an oversubscribed host P children
  // serialize, hence the NumWorkers factor on the budget.
  uint64_t RealDeadline = 0;
  if (Config.SeqBaselineNs != 0) {
    const double BudgetNs = DeadlineFactor *
                            static_cast<double>(Config.SeqBaselineNs) *
                            static_cast<double>(P);
    RealDeadline = Core.RealStart + std::max(static_cast<uint64_t>(BudgetNs),
                                             MinStallGraceNs);
  }

  while (!Pending.empty()) {
    // Every child of the previous round is dead and reaped, and finish
    // retires an unsuccessful run's template (and any residents)
    // synchronously, so nothing is orphaned.
    if (shutdownRequested())
      return Core.finish(RunStatus::Interrupted, Core.noteInterrupt());
    ++Result.Stats.NumRounds;
    const unsigned RoundSize =
        static_cast<unsigned>(std::min<int64_t>(ActiveP, Pending.size()));
    std::vector<RoundTxn> Round(RoundSize);
    for (unsigned W = 0; W != RoundSize; ++W)
      Round[W].Chunk = Pending[W];
    Pending.erase(Pending.begin(), Pending.begin() + RoundSize);

    // Fork up to N children: each inherits a COW snapshot of the committed
    // state. A failed launch is contained to its slot — the chunk is
    // requeued, the rest of the round proceeds.
    std::vector<bool> Launched(RoundSize);
    bool AnyLaunched = false;
    for (unsigned W = 0; W != RoundSize; ++W) {
      Launched[W] = Core.launch(W, Round[W].Chunk) ==
                    DispatchCore::Launch::Running;
      AnyLaunched |= Launched[W];
    }

    // Fork/pipe exhaustion at full width: when EVERY launch of the round
    // failed twice in a row, halve the effective parallelism so the
    // retries demand fewer simultaneous children.
    if (RoundSize > 0 && !AnyLaunched) {
      if (++AllFailedRounds >= 2 && ActiveP > 1) {
        ActiveP = std::max(1u, ActiveP / 2);
        ++Result.Stats.ResourceFaults;
        ++Result.Stats.ParallelismDowngrades;
        if (Core.Sink.events())
          Core.Sink.event(TraceEventKind::Downgrade, /*Worker=*/0,
                          /*Chunk=*/-1, traceNowNs(), 0, /*Arg0=*/1,
                          /*Arg1=*/ActiveP);
        AllFailedRounds = 0;
      }
    } else {
      AllFailedRounds = 0;
    }

    // Join: drain every channel concurrently under the stall deadline. A
    // child that outlives the deadline is SIGKILLed; the resulting EOF or
    // terminal doorbell completes its channel and the truncated message is
    // rejected downstream.
    bool TimedOut = false;
    while (Core.awaiting()) {
      if (shutdownRequested())
        // Stop waiting for stragglers; the post-join check below returns
        // Interrupted.
        Core.killInFlight();
      int TimeoutMs = -1;
      if (RealDeadline != 0) {
        const uint64_t Now = nowNs();
        TimeoutMs = Now >= RealDeadline
                        ? 0
                        : static_cast<int>((RealDeadline - Now) / 1000000) +
                              1;
      }
      const int N = Core.waitInFlight(TimeoutMs);
      if (N < 0 || (RealDeadline != 0 && nowNs() >= RealDeadline)) {
        // Deadline expired (or poll itself failed) with children still
        // reporting: kill them and drain the EOFs at full speed. Only the
        // deadline path flags the run as timed out.
        if (RealDeadline != 0 && nowNs() >= RealDeadline)
          TimedOut = true;
        Core.killInFlight();
        RealDeadline = 0;
        continue;
      }
      Core.pumpReady();
    }

    // Reap and decode in slot order. Every failure mode lands in FailWhy —
    // nothing here aborts the parent.
    std::vector<ChildReport> Reports(RoundSize);
    std::vector<std::string> FailWhy(RoundSize, "fork/pipe failure");
    for (unsigned W = 0; W != RoundSize; ++W) {
      if (!Launched[W] || !Core.collect(W, Reports[W], FailWhy[W]))
        continue;
      const ChildReport &Rep = Reports[W];
      Round[W].Reads = &Rep.Reads;
      Round[W].Writes = &Rep.Writes;
      Round[W].Cost.WorkNs = Rep.WorkNs;
      Round[W].Cost.BytesTouched = Rep.MemTrafficBytes;
      Round[W].Cost.CommitBytes = Rep.Log.dataBytes();
    }

    if (shutdownRequested())
      return Core.finish(RunStatus::Interrupted, Core.noteInterrupt());
    if (TimedOut)
      return Core.finish(RunStatus::Timeout,
                         "exceeded the real-time deadline with children "
                         "still executing");

    // A chunk that overflowed the access-set cap is the paper's resource
    // Crash: no retry — the same chunk would overflow again.
    for (unsigned W = 0; W != RoundSize; ++W)
      if (Round[W].Reads && Reports[W].LimitExceeded) {
        Result.FailedChunk = Round[W].Chunk;
        return Core.finish(
            RunStatus::Crash,
            strprintf("worker %u (chunk %lld) exceeded the access-set "
                      "memory cap",
                      W, static_cast<long long>(Round[W].Chunk)));
      }

    // Failed slots take part as automatic validation failures, so InOrder
    // holds: nothing younger than a missing chunk may commit in order.
    if (!retireRound(
            Round, Core.Detector, Core.Sink, Config, Result, Pending,
            [&](unsigned W) { Core.commit(Reports[W], Round[W].Chunk, W); },
            [&](unsigned W) {
              return Core.containFault(Round[W].Chunk, FailWhy[W]);
            }))
      return Core.finish(RunStatus::Crash, Result.Detail);
  }

  return Core.finish(RunStatus::Success, std::string());
}
