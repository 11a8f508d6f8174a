//===- runtime/ForkJoinExecutor.cpp ---------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ForkJoinExecutor.h"

#include "runtime/CommitJournal.h"
#include "runtime/ConflictDetector.h"
#include "runtime/ShutdownSupervisor.h"
#include "runtime/TraceSink.h"
#include "runtime/TxnWire.h"
#include "runtime/WorkerPool.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <csignal>
#include <deque>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>
#include <vector>

using namespace alter;

namespace {

/// Real-time floor under the stall deadline: fork/exec jitter on a loaded
/// host must not masquerade as a stalled child when the sequential baseline
/// is tiny.
constexpr uint64_t MinStallGraceNs = 250'000'000; // 250ms

/// Parent-side state for one forked chunk of the round.
struct RoundSlot {
  ChunkChannel Ch;         // transport-agnostic child channel
  bool ForkFailed = false; // pipe()/fork() (or injected ForkFail) failed
};

} // namespace

ForkJoinExecutor::ForkJoinExecutor(ExecutorConfig Config)
    : Config(std::move(Config)) {
  assert(this->Config.NumWorkers >= 1 && "need at least one worker");
  if (!this->Config.Costs)
    this->Config.Costs = &CostModel::calibrated();
}

ChildRusage ForkJoinExecutor::release() {
  Parked.reap(/*Block=*/true);
  return Parked.takeUsage();
}

RunResult ForkJoinExecutor::run(const LoopSpec &Spec) {
  assert(Spec.Body && "loop has no body");
  RunResult Result;
  Result.ScheduleUsed = ScheduleKind::Chunked;
  const int64_t Cf = Config.Params.ChunkFactor > 0
                         ? Config.Params.ChunkFactor
                         : globalChunkFactor();
  Result.ChunkFactorUsed = Cf;
  const int64_t NumChunks = (Spec.NumIterations + Cf - 1) / Cf;
  const unsigned P = Config.NumWorkers;

  std::deque<int64_t> Pending;
  for (int64_t C = 0; C != NumChunks; ++C)
    Pending.push_back(C);

  std::unordered_map<int64_t, unsigned> FaultCounts;
  ConflictDetector Detector(Config.Params.Conflict);
  TraceSink Sink(Config.Trace);
  // The previous run's template has usually finished dying while the outer
  // code ran; reap it now if so.
  Parked.reap(/*Block=*/false);
  // Steady-state transport: the warm template + per-slot commit rings.
  // Pool faults degrade individual forks to the cold pipe path below.
  std::unique_ptr<WorkerPool> Pool;
  if (Config.Transport == TransportKind::Ring)
    // No child reuse here: round-local validation (resetRound +
    // hasConflict) cannot see commits older than the current round, which
    // a reused child's snapshot would predate. Every chunk re-forks warm.
    Pool = std::make_unique<WorkerPool>(Spec, Config, P,
                                        /*AllowReuse=*/false);
  if (Pool && !Pool->valid()) {
    // Resource exhaustion while building the rings/pipes (ENOMEM/EMFILE):
    // retreat to the cold pipe transport for this run instead of aborting.
    ++Result.Stats.ResourceFaults;
    ++Result.Stats.TransportDowngrades;
    if (Sink.events()) {
      Sink.event(TraceEventKind::ResourceFault, /*Worker=*/0, /*Chunk=*/-1,
                 traceNowNs(), 0, /*Arg0=*/Pool->setupFaultSite());
      Sink.event(TraceEventKind::Downgrade, /*Worker=*/0, /*Chunk=*/-1,
                 traceNowNs(), 0, /*Arg0=*/0, /*Arg1=*/P);
    }
    Pool.reset();
  }
  ensureShutdownSupervisorInstalled();
  // Effective parallelism: halved (never below 1) after consecutive rounds
  // in which EVERY launch failed — fork/pipe exhaustion at full width.
  unsigned ActiveP = P;
  unsigned AllFailedRounds = 0;
  const uint64_t RealStart = nowNs();

  // Real-time stall deadline: children run on real CPUs, so the 10x rule
  // has to bound real time here. On an oversubscribed host P children
  // serialize, hence the NumWorkers factor on the budget.
  uint64_t RealDeadline = 0;
  if (Config.SeqBaselineNs != 0) {
    const double BudgetNs = Config.TimeoutFactor *
                            static_cast<double>(Config.SeqBaselineNs) *
                            static_cast<double>(P);
    RealDeadline = RealStart + std::max(static_cast<uint64_t>(BudgetNs),
                                        MinStallGraceNs);
  }

  // Timeline sampler: piggybacks on the round barrier and the finish
  // paths — no threads, zero clock reads when metrics are off, and
  // deterministic under the seeded trace clock (with tracing below Events
  // the sampler is the only traceNowNs caller, and the number of rounds is
  // already fixed by the engine's determinism).
  uint64_t LastSampleNs = 0;
  bool Sampled = false;
  const auto Sample = [&](uint64_t Inflight, bool Force) {
    if (!Config.Metrics)
      return;
    const uint64_t Now = traceNowNs();
    if (!Force && Sampled &&
        Now - LastSampleNs < Config.MetricsSampleIntervalNs)
      return;
    Sampled = true;
    LastSampleNs = Now;
    TimelineSample TS;
    TS.TimeNs = Now;
    TS.Committed = Result.Stats.NumCommitted;
    TS.Retries = Result.Stats.NumRetries;
    TS.WarmForks = Result.Stats.WarmForks;
    TS.ColdForks = Result.Stats.ColdForks;
    TS.InflightChunks = Inflight;
    TS.RingDepthBytes = Pool ? Pool->ringDepthBytes() : 0;
    TS.BusyNs = Result.Stats.WorkerBusyNs;
    TS.SlotNs = (nowNs() - RealStart) * P;
    Result.Timeline.push_back(TS);
    Result.Metrics.addCounter(CounterId::TimelineSamples);
    Result.Metrics.gaugeMax(GaugeId::PeakInflight, Inflight);
    Result.Metrics.gaugeMax(GaugeId::PeakRingDepthBytes, TS.RingDepthBytes);
  };

  const auto Finish = [&](RunStatus Status, std::string Detail) {
    Result.Status = Status;
    Result.Detail = std::move(Detail);
    Result.Stats.RealTimeNs = nowNs() - RealStart;
    Result.Stats.WorkerSlotNs = Result.Stats.RealTimeNs * P;
    Result.Stats.BloomChecks = Detector.bloomChecks();
    Result.Stats.BloomSkips = Detector.bloomSkips();
    Result.Stats.BloomFalsePositives = Detector.bloomFalsePositives();
    if (Pool) {
      Result.Stats.TemplateRefreshes = Pool->templateRefreshes();
      Result.Stats.PoolFaults = Pool->poolFaults();
      Result.Stats.ChildReuses = Pool->childReuses();
      if (!Pool->valid()) {
        // The pool died mid-run (failed ring respawn under exhaustion):
        // every later fork already degraded cold; account the downgrade.
        ++Result.Stats.ResourceFaults;
        ++Result.Stats.TransportDowngrades;
      }
      if (Result.Status == RunStatus::Success)
        // Retire the template without waiting: it kills and reaps its
        // residents while the outer code runs, and whoever reaps it later
        // (the next run, release(), the destructor) gets the CPU time of
        // the whole warm lineage, which wait4 folds in transitively.
        Parked.park(Pool->detachTemplate());
      else
        // Nothing of a failed or interrupted run outlives it.
        Pool->retire();
      Result.Stats.addChildUsage(Pool->templateRusage());
    }
    Result.Stats.addChildUsage(Parked.takeUsage());
    Sample(0, /*Force=*/true);
    // cpu_user_ns/cpu_sys_ns count the children this run reaped: the
    // previous run's parked template, but not a successful run's own.
    if (logEnabled(LogLevel::Info))
      alterLog(LogLevel::Info, "run",
               "event=run_done engine=forkjoin schedule=%s status=%s "
               "wall_ns=%llu occupancy=%.3f committed=%llu retries=%llu "
               "rounds=%llu warm_forks=%llu cold_forks=%llu crashes=%llu "
               "wire_rejects=%llu resource_faults=%llu cpu_user_ns=%llu "
               "cpu_sys_ns=%llu",
               scheduleKindName(Result.ScheduleUsed),
               runStatusName(Result.Status),
               static_cast<unsigned long long>(Result.Stats.RealTimeNs),
               Result.Stats.occupancy(),
               static_cast<unsigned long long>(Result.Stats.NumCommitted),
               static_cast<unsigned long long>(Result.Stats.NumRetries),
               static_cast<unsigned long long>(Result.Stats.NumRounds),
               static_cast<unsigned long long>(Result.Stats.WarmForks),
               static_cast<unsigned long long>(Result.Stats.ColdForks),
               static_cast<unsigned long long>(Result.Stats.NumChildCrashes),
               static_cast<unsigned long long>(Result.Stats.NumWireRejects),
               static_cast<unsigned long long>(Result.Stats.ResourceFaults),
               static_cast<unsigned long long>(Result.Stats.ChildUserNs),
               static_cast<unsigned long long>(Result.Stats.ChildSysNs));
    Sink.finish(Result);
    return Result;
  };

  // Graceful wind-down shared by the round-top and post-join checks: every
  // child of the round is already dead and reaped by the time either runs,
  // and Finish retires an unsuccessful run's template (and any residents)
  // synchronously, so nothing is orphaned.
  const auto FinishInterrupted = [&] {
    if (Sink.events())
      Sink.event(TraceEventKind::Interrupt, /*Worker=*/0, /*Chunk=*/-1,
                 traceNowNs(), 0, /*Arg0=*/Result.Stats.NumCommitted);
    return Finish(RunStatus::Interrupted,
                  strprintf("interrupted by shutdown request (signal %d) "
                            "with %llu chunks committed",
                            shutdownSignal(),
                            static_cast<unsigned long long>(
                                Result.Stats.NumCommitted)));
  };

  while (!Pending.empty()) {
    if (shutdownRequested())
      return FinishInterrupted();
    ++Result.Stats.NumRounds;
    const unsigned RoundSize =
        static_cast<unsigned>(std::min<int64_t>(ActiveP, Pending.size()));
    std::vector<int64_t> RoundChunks(Pending.begin(),
                                     Pending.begin() + RoundSize);
    Pending.erase(Pending.begin(), Pending.begin() + RoundSize);

    // Fork up to N children: each inherits a COW snapshot of the committed
    // state. A pipe() or fork() failure is contained to its slot — the
    // chunk is requeued, the rest of the round proceeds.
    std::vector<RoundSlot> Slots(RoundSize);
    for (unsigned W = 0; W != RoundSize; ++W) {
      const int64_t Chunk = RoundChunks[W];
      const int64_t First = Chunk * Cf;
      const int64_t Last = std::min<int64_t>(First + Cf, Spec.NumIterations);
      faultParentKillPoint(); // crash-restart: parent dies at dispatch
      ArmedFault Fault;
      if (FaultPlan::global().enabled()) {
        // Fault points address the ORIGINAL coordinates of the work: a
        // salvage sub-run re-indexes chunks, so map back before consuming.
        FaultCoords FC{Chunk, First, Last};
        if (Spec.FaultRemap)
          FC = Spec.FaultRemap(Chunk, First, Last);
        Fault = FaultPlan::global().take(FC.Chunk, FC.FirstIter, FC.LastIter);
      }
      if (Fault.Armed && Fault.Kind == FaultKind::SignalStorm) {
        // The storm targets the parent, not the chunk: latch a shutdown
        // request; the post-join check winds down into Interrupted.
        requestShutdown();
        Slots[W].ForkFailed = true;
        continue;
      }
      if (Fault.Armed && Fault.Kind == FaultKind::ForkFail) {
        Slots[W].ForkFailed = true;
        continue;
      }
      // Cold children must not inherit the other in-flight pipe read ends.
      std::vector<int> CloseInChild;
      for (unsigned Prev = 0; Prev != W; ++Prev)
        if (Slots[Prev].Ch.Launched && !Slots[Prev].Ch.Warm)
          CloseInChild.push_back(Slots[Prev].Ch.PollFd);
      if (!spawnChunkChild(Spec, Config, Pool.get(), W, Chunk, First, Last,
                           Fault, CloseInChild, Slots[W].Ch)) {
        Slots[W].ForkFailed = true;
        continue;
      }
      if (Slots[W].Ch.Warm)
        ++Result.Stats.WarmForks;
      else
        ++Result.Stats.ColdForks;
      if (Sink.events())
        Sink.event(TraceEventKind::Fork, /*Worker=*/0, Chunk, traceNowNs(),
                   0, /*Arg0=*/W + 1,
                   /*Arg1=*/Slots[W].Ch.Warm ? 1 : 0);
    }

    // Fork/pipe exhaustion at full width: when EVERY launch of the round
    // failed twice in a row, halve the effective parallelism so the
    // retries demand fewer simultaneous children.
    bool AllLaunchesFailed = RoundSize > 0;
    for (unsigned W = 0; W != RoundSize; ++W)
      AllLaunchesFailed &= Slots[W].ForkFailed;
    if (AllLaunchesFailed) {
      if (++AllFailedRounds >= 2 && ActiveP > 1) {
        ActiveP = std::max(1u, ActiveP / 2);
        ++Result.Stats.ResourceFaults;
        ++Result.Stats.ParallelismDowngrades;
        if (Sink.events())
          Sink.event(TraceEventKind::Downgrade, /*Worker=*/0, /*Chunk=*/-1,
                     traceNowNs(), 0, /*Arg0=*/1, /*Arg1=*/ActiveP);
        AllFailedRounds = 0;
      }
    } else {
      AllFailedRounds = 0;
    }

    // Join: drain every pipe concurrently under the stall deadline. A
    // child that outlives the deadline is SIGKILLed; the resulting EOF
    // unblocks its read and the truncated message is rejected downstream.
    bool TimedOut = false;
    for (;;) {
      if (shutdownRequested())
        // Stop waiting for stragglers: SIGKILL everything still in flight;
        // the resulting EOFs/terminal doorbells complete the channels and
        // the post-join check returns Interrupted.
        for (unsigned W = 0; W != RoundSize; ++W)
          if (Slots[W].Ch.Launched && !Slots[W].Ch.Done)
            killChunkChild(Pool.get(), W, Slots[W].Ch);
      std::vector<pollfd> Pfds;
      std::vector<unsigned> PfdSlot;
      for (unsigned W = 0; W != RoundSize; ++W)
        if (Slots[W].Ch.Launched && !Slots[W].Ch.Done) {
          Pfds.push_back({Slots[W].Ch.PollFd, POLLIN, 0});
          PfdSlot.push_back(W);
        }
      if (Pfds.empty())
        break;
      int TimeoutMs = -1;
      if (RealDeadline != 0) {
        const uint64_t Now = nowNs();
        TimeoutMs = Now >= RealDeadline
                        ? 0
                        : static_cast<int>((RealDeadline - Now) / 1000000) +
                              1;
      }
      const uint64_t PollT0 = Sink.events() ? traceNowNs() : 0;
      const int N =
          ::poll(Pfds.data(), static_cast<nfds_t>(Pfds.size()), TimeoutMs);
      if (Sink.events() && N >= 0)
        Sink.event(TraceEventKind::PollWake, /*Worker=*/0, /*Chunk=*/-1,
                   PollT0, traceNowNs() - PollT0,
                   /*Arg0=*/static_cast<uint64_t>(N),
                   /*Arg1=*/static_cast<uint64_t>(Pfds.size()));
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 || (RealDeadline != 0 && nowNs() >= RealDeadline)) {
        // Deadline expired (or poll itself failed) with children still
        // reporting: kill them and drain the EOFs at full speed. Only the
        // deadline path flags the run as timed out.
        if (RealDeadline != 0 && nowNs() >= RealDeadline)
          TimedOut = true;
        for (unsigned W = 0; W != RoundSize; ++W)
          if (Slots[W].Ch.Launched && !Slots[W].Ch.Done)
            killChunkChild(Pool.get(), W, Slots[W].Ch);
        RealDeadline = 0;
        continue;
      }
      for (size_t I = 0; I != Pfds.size(); ++I) {
        if (!(Pfds[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        pumpChunkChannel(Pool.get(), PfdSlot[I], Slots[PfdSlot[I]].Ch);
      }
    }

    // Reap and decode. Every failure mode lands in FailWhy — nothing here
    // aborts the parent.
    std::vector<ChildReport> Reports(RoundSize);
    std::vector<bool> Ok(RoundSize, false);
    std::vector<std::string> FailWhy(RoundSize);
    for (unsigned W = 0; W != RoundSize; ++W) {
      RoundSlot &S = Slots[W];
      if (S.ForkFailed) {
        ++Result.Stats.NumForkFailures;
        ++Result.Stats.ResourceFaults;
        if (Sink.events())
          Sink.event(TraceEventKind::ResourceFault, /*Worker=*/0,
                     RoundChunks[W], traceNowNs(), 0, /*Arg0=*/2);
        FailWhy[W] = "fork/pipe failure";
        continue;
      }
      Result.Stats.WireBytesCopied += S.Ch.BytesCopied;
      if (S.Ch.Warm) {
        // The template reaped the child; its doorbell carried the verdict.
        if (S.Ch.Abnormal) {
          ++Result.Stats.NumChildCrashes;
          FailWhy[W] = "pooled child terminated abnormally";
          continue;
        }
      } else {
        int Status = 0;
        ChildRusage Usage;
        if (waitpidRusage(S.Ch.DirectPid, &Status, &Usage) < 0) {
          ++Result.Stats.NumChildCrashes;
          FailWhy[W] = "waitpid failure";
          continue;
        }
        Result.Stats.addChildUsage(Usage);
        if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
          ++Result.Stats.NumChildCrashes;
          FailWhy[W] =
              strprintf("terminated abnormally (status 0x%x)", Status);
          continue;
        }
      }
      std::string Error;
      if (!decodeChildReport(S.Ch.Buf, Spec, Config.Params, Reports[W],
                             Error)) {
        ++Result.Stats.NumWireRejects;
        FailWhy[W] = "rejected commit message: " + Error;
        continue;
      }
      Ok[W] = true;
      Sink.absorbChild(Reports[W].Trace);
      if (Config.Metrics)
        Result.Metrics.merge(Reports[W].Metrics);
    }

    if (shutdownRequested())
      // Every child of the round is dead and reaped (killed above, EOFs
      // drained, cold children waited on just now): wind down cleanly.
      return FinishInterrupted();

    if (TimedOut)
      return Finish(RunStatus::Timeout,
                    "exceeded the real-time deadline with children still "
                    "executing");

    // A chunk that overflowed the access-set cap is the paper's resource
    // Crash: no retry — the same chunk would overflow again.
    for (unsigned W = 0; W != RoundSize; ++W)
      if (Ok[W] && Reports[W].LimitExceeded) {
        Result.FailedChunk = RoundChunks[W];
        return Finish(
            RunStatus::Crash,
            strprintf("worker %u (chunk %lld) exceeded the access-set "
                      "memory cap",
                      W, static_cast<long long>(RoundChunks[W])));
      }

    // Validate and commit in deterministic ascending order. Failed slots
    // participate as automatic validation failures so InOrder semantics
    // hold: nothing younger than a missing chunk may commit in order.
    Detector.resetRound();
    std::vector<TxnCost> Costs(RoundSize);
    bool InOrderBroken = false;
    std::vector<int64_t> Retried;
    for (unsigned W = 0; W != RoundSize; ++W) {
      const int64_t Chunk = RoundChunks[W];
      if (!Ok[W]) {
        const unsigned Count = ++FaultCounts[Chunk];
        if (Count > Config.ChunkFaultRetryLimit) {
          Result.FailedChunk = Chunk;
          return Finish(
              RunStatus::Crash,
              strprintf("chunk %lld failed %u consecutive attempts (%s)",
                        static_cast<long long>(Chunk), Count,
                        FailWhy[W].c_str()));
        }
        if (Sink.events())
          Sink.event(TraceEventKind::FaultContained, /*Worker=*/0, Chunk,
                     traceNowNs(), 0, /*Arg0=*/Count);
        if (Config.Params.CommitOrder == CommitOrderPolicy::InOrder)
          InOrderBroken = true;
        Retried.push_back(Chunk);
        continue;
      }
      ChildReport &Rep = Reports[W];
      ++Result.Stats.NumTransactions;
      Result.Stats.ReadSetWords.add(
          static_cast<double>(Rep.Reads.sizeWords()));
      Result.Stats.WriteSetWords.add(
          static_cast<double>(Rep.Writes.sizeWords()));
      Result.Stats.InstrReadCalls += Rep.InstrReadCalls;
      Result.Stats.InstrWriteCalls += Rep.InstrWriteCalls;
      Result.Stats.BytesRead += Rep.BytesRead;
      Result.Stats.BytesWritten += Rep.BytesWritten;
      Result.Stats.WireBytes += Rep.WireBytes;
      Result.Stats.WireBytesRaw += Rep.RawWireBytes;
      Result.Stats.WorkerBusyNs += Rep.WorkNs;
      Costs[W].WorkNs = Rep.WorkNs;
      Costs[W].BytesTouched = Rep.MemTrafficBytes;

      const uint64_t WordsBefore = Detector.wordsChecked();
      const uint64_t ValT0 = Sink.events() ? traceNowNs() : 0;
      const uint64_t ValR0 = Config.Metrics ? nowNs() : 0;
      faultParentKillPoint(); // crash-restart: parent dies at validate
      // Preserve the short-circuit: a broken in-order prefix fails the
      // chunk without running (and without charging for) a conflict check.
      bool Failed = InOrderBroken;
      if (!Failed)
        Failed = Detector.hasConflict(Rep.Reads, Rep.Writes);
      const uintptr_t Witness =
          InOrderBroken ? 0 : Detector.lastConflictWord();
      Costs[W].CheckWords = Detector.wordsChecked() - WordsBefore;
      if (Config.Metrics) {
        Result.Metrics.record(HistogramId::ValidateNs, nowNs() - ValR0);
        Result.Metrics.addCounter(CounterId::ParentValidates);
      }
      if (Sink.events())
        Sink.event(TraceEventKind::Validate, /*Worker=*/0, Chunk, ValT0,
                   traceNowNs() - ValT0, /*Arg0=*/Failed ? 1 : 0,
                   /*Arg1=*/Witness);
      if (Failed) {
        ++Result.Stats.NumRetries;
        if (Sink.counters())
          Sink.conflict(Chunk, Witness);
        if (Sink.events())
          Sink.event(TraceEventKind::Retry, /*Worker=*/0, Chunk,
                     traceNowNs());
        if (Config.Params.CommitOrder == CommitOrderPolicy::InOrder)
          InOrderBroken = true;
        Retried.push_back(Chunk);
        continue;
      }
      ++Result.Stats.NumCommitted;
      Costs[W].Committed = true;
      Costs[W].CommitBytes = Rep.Log.dataBytes();
      const uint64_t CommitT0 = Sink.events() ? traceNowNs() : 0;
      const uint64_t CommitR0 = Config.Metrics ? nowNs() : 0;
      Detector.recordCommit(Rep.Writes);
      // Write-ahead: journal the commit before applying it. A crash in
      // the gap replays the chunk by re-execution, which re-derives these
      // same effects from the rebuilt prefix state.
      if (Config.Journal) {
        const int64_t JFirst = Chunk * Cf;
        const int64_t JLast =
            std::min<int64_t>(JFirst + Cf, Spec.NumIterations);
        Config.Journal->appendCommit(Chunk, JFirst, JLast, &Rep.Log);
      }
      faultParentKillPoint(); // crash-restart: parent dies at commit
      // Apply the child's writes verbatim: the ALTER allocator guarantees
      // address disjointness, so this cannot clobber live parent data.
      Rep.Log.apply();
      for (unsigned I = 0; I != Rep.Slots.size(); ++I)
        if (Rep.Slots[I].Active && Rep.Slots[I].Touched)
          TxnContext::commitReductionSlot(Spec.Reductions[I], Rep.Slots[I]);
      if (Config.Allocator)
        Config.Allocator->advanceBump(W + 1, Rep.BumpOffset);
      // Stream the commit to the warm template at the exact point it is
      // applied here, so later warm forks snapshot this state.
      if (Pool)
        Pool->pushCommit(W + 1, Chunk, Rep);
      if (Config.Metrics) {
        Result.Metrics.record(HistogramId::CommitNs, nowNs() - CommitR0);
        Result.Metrics.addCounter(CounterId::ParentCommits);
      }
      Result.CommitOrder.push_back(Chunk);
      if (Sink.events())
        Sink.event(TraceEventKind::Commit, /*Worker=*/0, Chunk, CommitT0,
                   traceNowNs() - CommitT0, /*Arg0=*/Rep.Log.dataBytes());
    }
    // Failed chunks retry ahead of younger chunks, preserving program order.
    for (auto It = Retried.rbegin(); It != Retried.rend(); ++It)
      Pending.push_front(*It);

    Result.Stats.SimTimeNs += Config.Costs->roundNs(Costs, P);
    if (Sink.events())
      Sink.event(TraceEventKind::RoundBarrier, /*Worker=*/0, /*Chunk=*/-1,
                 traceNowNs(), 0, /*Arg0=*/Result.Stats.NumRounds);
    Sample(0, /*Force=*/false);
  }

  return Finish(RunStatus::Success, std::string());
}
