//===- runtime/LockstepExecutor.cpp ---------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/LockstepExecutor.h"

#include "runtime/ConflictDetector.h"
#include "runtime/Round.h"
#include "runtime/TraceSink.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>
#include <vector>

using namespace alter;

LockstepExecutor::LockstepExecutor(ExecutorConfig Config)
    : Config(std::move(Config)) {
  assert(this->Config.NumWorkers >= 1 && "need at least one worker");
  if (!this->Config.Costs)
    this->Config.Costs = &CostModel::calibrated();
}

RunResult LockstepExecutor::run(const LoopSpec &Spec) {
  assert(Spec.Body && "loop has no body");
  RunResult Result;
  Result.ScheduleUsed = ScheduleKind::Chunked;
  const int64_t Cf = Config.Params.ChunkFactor > 0
                         ? Config.Params.ChunkFactor
                         : globalChunkFactor();
  Result.ChunkFactorUsed = Cf;
  const int64_t NumChunks = (Spec.NumIterations + Cf - 1) / Cf;
  const unsigned P = Config.NumWorkers;

  // Pending chunks in ascending program order. Retried chunks re-enter in
  // order, so the front of the queue is always the oldest pending chunk —
  // required for InOrder progress and for determinism.
  std::deque<int64_t> Pending;
  for (int64_t C = 0; C != NumChunks; ++C)
    Pending.push_back(C);

  // One context per worker, reused across rounds (beginTxn resets state).
  std::vector<std::unique_ptr<TxnContext>> Contexts;
  Contexts.reserve(P);
  for (unsigned W = 0; W != P; ++W)
    Contexts.push_back(std::make_unique<TxnContext>(
        ContextMode::Transactional, &Config.Params, &Spec, Config.Allocator,
        /*Worker=*/W + 1, Config.Limits));

  ConflictDetector Detector(Config.Params.Conflict);
  TraceSink Sink(Config.Trace);
  const uint64_t RealStart = nowNs();
  const uint64_t DeadlineSimNs =
      Config.SeqBaselineNs == 0
          ? 0
          : static_cast<uint64_t>(Config.TimeoutFactor *
                                  static_cast<double>(Config.SeqBaselineNs));

  while (!Pending.empty()) {
    ++Result.Stats.NumRounds;
    // Step 2a: workers pick up the next chunks in program order.
    const unsigned RoundSize =
        static_cast<unsigned>(std::min<int64_t>(P, Pending.size()));
    std::vector<RoundTxn> Round(RoundSize);
    for (unsigned W = 0; W != RoundSize; ++W)
      Round[W].Chunk = Pending[W];
    Pending.erase(Pending.begin(), Pending.begin() + RoundSize);

    // Step 2b: execute in isolation, tracking read/write sets.
    for (unsigned W = 0; W != RoundSize; ++W) {
      TxnContext &Ctx = *Contexts[W];
      Ctx.beginTxn();
      const int64_t First = Round[W].Chunk * Cf;
      const int64_t Last =
          std::min<int64_t>(First + Cf, Spec.NumIterations);
      const uint64_t TraceT0 = Sink.events() ? traceNowNs() : 0;
      const uint64_t T0 = nowNs();
      for (int64_t I = First; I != Last; ++I)
        Spec.Body(Ctx, I);
      // Unwind the direct writes so the next round-mate sees the committed
      // snapshot (the paper's per-process isolation, step 2b).
      Ctx.suspendTxn();
      Round[W].Cost.WorkNs = nowNs() - T0;
      Round[W].Cost.BytesTouched = Ctx.memTrafficBytes();
      Round[W].Cost.CommitBytes = Ctx.writeLog().dataBytes();
      if (Sink.events())
        Sink.event(TraceEventKind::ChunkExec, /*Worker=*/W + 1,
                   Round[W].Chunk, TraceT0, traceNowNs() - TraceT0,
                   /*Arg0=*/Ctx.readSet().sizeWords(),
                   /*Arg1=*/Ctx.writeSet().sizeWords());
      if (Ctx.limitExceeded()) {
        Result.Status = RunStatus::Crash;
        Result.Detail = strprintf(
            "transaction for chunk %lld exceeded the access-set memory cap",
            static_cast<long long>(Round[W].Chunk));
        Result.Stats.RealTimeNs = nowNs() - RealStart;
        Sink.finish(Result);
        return Result;
      }
      Round[W].Reads = &Ctx.readSet();
      Round[W].Writes = &Ctx.writeSet();
      ++Result.Stats.NumTransactions;
      Result.Stats.ReadSetWords.add(
          static_cast<double>(Ctx.readSet().sizeWords()));
      Result.Stats.WriteSetWords.add(
          static_cast<double>(Ctx.writeSet().sizeWords()));
      Result.Stats.InstrReadCalls += Ctx.instrReadCalls();
      Result.Stats.InstrWriteCalls += Ctx.instrWriteCalls();
      Result.Stats.BytesRead += Ctx.bytesRead();
      Result.Stats.BytesWritten += Ctx.bytesWritten();
    }

    // Step 2c: validate and commit one after another in deterministic
    // (ascending program) order; step 2d: advance the modeled parallel
    // clock past the barrier.
    retireRound(Round, Detector, Sink, Config, Result, Pending,
                [&](unsigned W) {
                  TxnContext &Ctx = *Contexts[W];
                  Ctx.commitTxn();
                  Result.CommitOrder.push_back(Round[W].Chunk);
                  if (Sink.events())
                    Sink.event(TraceEventKind::Commit, /*Worker=*/0,
                               Round[W].Chunk, traceNowNs(), 0,
                               /*Arg0=*/Ctx.writeLog().dataBytes());
                });
    for (unsigned W = 0; W != RoundSize; ++W)
      if (!Round[W].Cost.Committed)
        Contexts[W]->abortTxn();

    if (DeadlineSimNs != 0 &&
        AccumulatedSimNs + Result.Stats.SimTimeNs > DeadlineSimNs) {
      Result.Status = RunStatus::Timeout;
      Result.Detail = "modeled execution time exceeded the 10x-sequential "
                      "deadline";
      Result.Stats.RealTimeNs = nowNs() - RealStart;
      Sink.finish(Result);
      return Result;
    }
  }

  Result.Stats.RealTimeNs = nowNs() - RealStart;
  if (logEnabled(LogLevel::Info))
    alterLog(LogLevel::Info, "run",
             "event=run_done engine=lockstep schedule=%s status=%s "
             "wall_ns=%llu sim_ns=%llu occupancy=%.3f committed=%llu "
             "retries=%llu rounds=%llu",
             scheduleKindName(Result.ScheduleUsed),
             runStatusName(Result.Status),
             static_cast<unsigned long long>(Result.Stats.RealTimeNs),
             static_cast<unsigned long long>(Result.Stats.SimTimeNs),
             Result.Stats.occupancy(),
             static_cast<unsigned long long>(Result.Stats.NumCommitted),
             static_cast<unsigned long long>(Result.Stats.NumRetries),
             static_cast<unsigned long long>(Result.Stats.NumRounds));
  Sink.finish(Result);
  return Result;
}
