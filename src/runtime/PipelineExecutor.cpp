//===- runtime/PipelineExecutor.cpp ---------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/PipelineExecutor.h"

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
#include <deque>
#include <map>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace alter;

namespace {

/// One worker slot of the pipeline. A slot owns one arena index (slot i
/// runs children as Worker i+1), so its lifecycle must serialize every use
/// of that arena:
///
///   Free -> Running (child forked) -> Free           (report consumed), or
///        -> Running -> Reserved (report buffered for in-order retirement,
///           arena cursor still unadvanced) -> Free    (retired or retried)
///
/// Reserved exists only under CommitOrderPolicy::InOrder: a buffered
/// chunk's allocations live in the slot's arena beyond the child's exit,
/// and forking another child into the same arena before the buffered chunk
/// retires would hand out overlapping addresses.
struct Slot {
  enum class State { Free, Running, Reserved };
  State St = State::Free;
  ChunkChannel Ch; // transport-agnostic child channel
  int64_t Chunk = -1;
  uint64_t SnapshotSeq = 0;
  /// A warm child may still be resident in this slot (ring transport):
  /// even while the slot is Free — between its chunk completing and the
  /// next dispatch — the child's snapshot must hold back epoch pruning, or
  /// a redispatch that keeps it would validate against truncated history
  /// and miss conflicts. Needless once catch-up is engaged, since every
  /// later dispatch then takes a fresh snapshot.
  bool PinSnapshot = false;
};

/// A decoded report waiting for in-order retirement.
struct BufferedReport {
  ChildReport Rep;
  uint64_t SnapshotSeq = 0;
  unsigned SlotIdx = 0;
};

} // namespace

PipelineExecutor::PipelineExecutor(ExecutorConfig Config)
    : Config(std::move(Config)) {
  assert(this->Config.NumWorkers >= 1 && "need at least one worker");
  if (!this->Config.Costs)
    this->Config.Costs = &CostModel::calibrated();
}

ChildRusage PipelineExecutor::release() {
  Parked.reap(/*Block=*/true);
  return Parked.takeUsage();
}

RunResult PipelineExecutor::run(const LoopSpec &Spec) {
  assert(Spec.Body && "loop has no body");
  RunResult Result;
  Result.ScheduleUsed = ScheduleKind::Chunked;
  const int64_t Cf = Config.Params.ChunkFactor > 0
                         ? Config.Params.ChunkFactor
                         : globalChunkFactor();
  Result.ChunkFactorUsed = Cf;
  const int64_t NumChunks = (Spec.NumIterations + Cf - 1) / Cf;
  const unsigned P = Config.NumWorkers;
  const bool InOrder =
      Config.Params.CommitOrder == CommitOrderPolicy::InOrder;
  const uint64_t DeadlineNs =
      Config.SeqBaselineNs == 0
          ? 0
          : static_cast<uint64_t>(Config.TimeoutFactor *
                                  static_cast<double>(Config.SeqBaselineNs));

  // Pending chunks, kept sorted ascending at all times: initial chunks are
  // created in order and retried chunks re-enter by sorted insertion, so
  // the front is always the oldest runnable chunk.
  std::deque<int64_t> Pending;
  for (int64_t C = 0; C != NumChunks; ++C)
    Pending.push_back(C);

  std::vector<Slot> Slots(P);
  std::map<int64_t, BufferedReport> Arrived; // InOrder retirement buffer
  std::map<int64_t, unsigned> RetryCount;
  std::map<int64_t, unsigned> FaultCounts;
  int64_t NextToRetire = 0; // InOrder: the only chunk allowed to commit
  int64_t Committed = 0;
  int64_t DrainChunk = -1; // starvation guard target, -1 when inactive
  // Set at the first failed validation: from then on resident children
  // replay the commits they missed at each redispatch (WorkerPool).
  bool CatchUp = false;

  ConflictDetector Detector(Config.Params.Conflict);
  TraceSink Sink(Config.Trace);
  // The previous run's template has usually finished dying while the outer
  // code ran; reap it now if so.
  Parked.reap(/*Block=*/false);
  // Steady-state transport: the warm template + per-slot commit rings.
  // Pool faults degrade individual forks to the cold pipe path below.
  std::unique_ptr<WorkerPool> Pool;
  if (Config.Transport == TransportKind::Ring)
    // The pipeline's per-slot snapshot validation makes child reuse sound
    // here (unlike ForkJoin's round-local validation).
    Pool = std::make_unique<WorkerPool>(Spec, Config, P,
                                        /*AllowReuse=*/true);
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
  // Effective parallelism, shrunk (never below 1) when the environment
  // cannot even sustain the launches — see the all-fail sweep backoff.
  unsigned ActiveP = P;
  unsigned FailedSweeps = 0;
  const uint64_t RealStart = nowNs();

  bool Crashed = false;
  std::string CrashDetail;

  auto runningSlots = [&] {
    uint64_t N = 0;
    for (const Slot &S : Slots)
      N += S.St == Slot::State::Running ? 1 : 0;
    return N;
  };

  // Timeline sampler: piggybacks on the poll-wakeup dispatch point (and
  // the finish path) under the MetricsSampleIntervalNs floor — no threads,
  // zero clock reads when metrics are off.
  uint64_t LastSampleNs = 0;
  bool Sampled = false;
  auto sampleTimeline = [&](bool Force) {
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
    TS.InflightChunks = runningSlots();
    TS.RingDepthBytes = Pool ? Pool->ringDepthBytes() : 0;
    TS.BusyNs = Result.Stats.WorkerBusyNs;
    TS.SlotNs = (nowNs() - RealStart) * P;
    Result.Timeline.push_back(TS);
    Result.Metrics.addCounter(CounterId::TimelineSamples);
    Result.Metrics.gaugeMax(GaugeId::PeakInflight, TS.InflightChunks);
    Result.Metrics.gaugeMax(GaugeId::PeakRingDepthBytes, TS.RingDepthBytes);
  };

  // Called on every exit path, so the sink flushes into the result exactly
  // once regardless of how the run ends.
  auto finishStats = [&] {
    Result.Stats.RealTimeNs = nowNs() - RealStart;
    // Real parallel engine: the modeled clock is the real clock.
    Result.Stats.SimTimeNs = Result.Stats.RealTimeNs;
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
    sampleTimeline(/*Force=*/true);
    // cpu_user_ns/cpu_sys_ns count the children this run reaped: the
    // previous run's parked template, but not a successful run's own.
    if (logEnabled(LogLevel::Info))
      alterLog(LogLevel::Info, "run",
               "event=run_done engine=pipeline schedule=%s status=%s "
               "wall_ns=%llu occupancy=%.3f committed=%llu retries=%llu "
               "warm_forks=%llu cold_forks=%llu reuses=%llu crashes=%llu "
               "wire_rejects=%llu resource_faults=%llu cpu_user_ns=%llu "
               "cpu_sys_ns=%llu",
               scheduleKindName(Result.ScheduleUsed),
               runStatusName(Result.Status),
               static_cast<unsigned long long>(Result.Stats.RealTimeNs),
               Result.Stats.occupancy(),
               static_cast<unsigned long long>(Result.Stats.NumCommitted),
               static_cast<unsigned long long>(Result.Stats.NumRetries),
               static_cast<unsigned long long>(Result.Stats.WarmForks),
               static_cast<unsigned long long>(Result.Stats.ColdForks),
               static_cast<unsigned long long>(Result.Stats.ChildReuses),
               static_cast<unsigned long long>(Result.Stats.NumChildCrashes),
               static_cast<unsigned long long>(Result.Stats.NumWireRejects),
               static_cast<unsigned long long>(Result.Stats.ResourceFaults),
               static_cast<unsigned long long>(Result.Stats.ChildUserNs),
               static_cast<unsigned long long>(Result.Stats.ChildSysNs));
    Sink.finish(Result);
  };

  auto killInFlight = [&] {
    for (unsigned I = 0; I != P; ++I) {
      Slot &S = Slots[I];
      if (S.St != Slot::State::Running)
        continue;
      killChunkChild(Pool.get(), I, S.Ch);
      if (!S.Ch.Warm) {
        if (S.Ch.PollFd >= 0)
          ::close(S.Ch.PollFd);
        int Status = 0;
        ChildRusage Usage;
        if (waitpidRusage(S.Ch.DirectPid, &Status, &Usage) > 0)
          Result.Stats.addChildUsage(Usage);
      }
      // Warm children are the template's to reap; the pool teardown (or
      // the Kill command just sent) takes care of them.
      S.St = Slot::State::Free;
    }
  };

  auto insertPending = [&](int64_t Chunk) {
    Pending.insert(std::lower_bound(Pending.begin(), Pending.end(), Chunk),
                   Chunk);
  };

  auto anyRunning = [&] {
    for (const Slot &S : Slots)
      if (S.St == Slot::State::Running)
        return true;
    return false;
  };

  // Contained per-chunk failure: requeue for a clean retry, or — once the
  // chunk has burned its fault budget — flag the whole run as a Crash the
  // caller can recover from sequentially.
  auto chunkFault = [&](int64_t Chunk, const std::string &Why) {
    const unsigned Count = ++FaultCounts[Chunk];
    if (Count > Config.ChunkFaultRetryLimit) {
      Crashed = true;
      Result.FailedChunk = Chunk;
      CrashDetail =
          strprintf("chunk %lld failed %u consecutive attempts (%s)",
                    static_cast<long long>(Chunk), Count, Why.c_str());
      return;
    }
    if (Sink.events())
      Sink.event(TraceEventKind::FaultContained, /*Worker=*/0, Chunk,
                 traceNowNs(), 0, /*Arg0=*/Count);
    insertPending(Chunk);
  };

  // Returns false when the chunk could not be launched (injected ForkFail,
  // or a real pipe()/fork() failure); the chunk is requeued via chunkFault
  // and the slot stays Free.
  auto forkChunk = [&](unsigned SlotIdx, int64_t Chunk) -> bool {
    Slot &S = Slots[SlotIdx];
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
      // request and let the main loop wind down into Interrupted.
      requestShutdown();
      insertPending(Chunk);
      return false;
    }
    if (Fault.Armed && Fault.Kind == FaultKind::ForkFail) {
      ++Result.Stats.NumForkFailures;
      ++Result.Stats.ResourceFaults;
      if (Sink.events())
        Sink.event(TraceEventKind::ResourceFault, /*Worker=*/0, Chunk,
                   traceNowNs(), 0, /*Arg0=*/2);
      chunkFault(Chunk, "fork/pipe failure");
      return false;
    }
    // A cold fallback child inherits the other in-flight COLD read ends;
    // close them in the child so their EOF semantics stay clean. (Warm
    // slots poll pool-owned doorbells, which don't carry EOF.)
    std::vector<int> CloseInChild;
    for (const Slot &Other : Slots)
      if (Other.St == Slot::State::Running && !Other.Ch.Warm)
        CloseInChild.push_back(Other.Ch.PollFd);
    if (!spawnChunkChild(Spec, Config, Pool.get(), SlotIdx, Chunk, First,
                         Last, Fault, CloseInChild, S.Ch)) {
      ++Result.Stats.NumForkFailures;
      ++Result.Stats.ResourceFaults;
      if (Sink.events())
        Sink.event(TraceEventKind::ResourceFault, /*Worker=*/0, Chunk,
                   traceNowNs(), 0, /*Arg0=*/2);
      chunkFault(Chunk, "fork/pipe failure");
      return false;
    }
    if (S.Ch.Warm)
      ++Result.Stats.WarmForks;
    else
      ++Result.Stats.ColdForks;
    if (Sink.events())
      Sink.event(TraceEventKind::Fork, /*Worker=*/0, Chunk, traceNowNs(), 0,
                 /*Arg0=*/SlotIdx + 1,
                 /*Arg1=*/S.Ch.Reused ? 2 : S.Ch.Warm ? 1 : 0);
    S.St = Slot::State::Running;
    S.Chunk = Chunk;
    // The child's snapshot reflects every commit applied so far — a warm
    // fork sees exactly the commits streamed to the template before the
    // Fork command (FIFO), a cold fork sees the parent's memory, a
    // caught-up redispatch replays every commit pushed to the pool; all
    // must validate against everything that commits after this point.
    // A REUSED child without catch-up is the exception: its memory still
    // dates from its snapshot (plus its own committed writes), so the
    // slot keeps its SnapshotSeq and the chunk validates against every
    // commit since then — older snapshot, more abort exposure, same
    // soundness. (This also pins epoch pruning below that seq; the
    // MaxChildReuse chain cap bounds how far it can lag.)
    if (!S.Ch.Reused || CatchUp)
      S.SnapshotSeq = Detector.commitSeq();
    // Ring children stay resident after completion, so their snapshot
    // must pin pruning across the slot's Free gaps; a cold child is gone
    // once its record is in.
    S.PinSnapshot = S.Ch.Warm;
    return true;
  };

  // Keep every slot busy: the continuous feed that replaces the round
  // barrier. Under the starvation guard only the starving chunk may fork,
  // and only once the pipeline has drained, which guarantees it validates
  // against zero concurrent commits and therefore commits.
  auto fillSlots = [&] {
    if (DrainChunk >= 0) {
      if (anyRunning())
        return;
      for (unsigned I = 0; I != P; ++I) {
        if (Slots[I].St != Slot::State::Free)
          continue;
        const auto It =
            std::lower_bound(Pending.begin(), Pending.end(), DrainChunk);
        assert(It != Pending.end() && *It == DrainChunk &&
               "drain target must be pending");
        Pending.erase(It);
        forkChunk(I, DrainChunk);
        return;
      }
      return;
    }
    // Dispatch only into the first ActiveP slots: a parallelism downgrade
    // must reduce the number of SIMULTANEOUS children, and slots above the
    // shrunk width drain naturally (Reserved reports still retire).
    for (unsigned I = 0; I != ActiveP && !Pending.empty() && !Crashed; ++I) {
      if (Slots[I].St != Slot::State::Free)
        continue;
      const int64_t Chunk = Pending.front();
      Pending.pop_front();
      forkChunk(I, Chunk);
    }
  };

  auto pruneEpochs = [&] {
    uint64_t MinSnapshot = Detector.commitSeq();
    for (const Slot &S : Slots)
      if (S.St == Slot::State::Running || (S.PinSnapshot && !CatchUp))
        MinSnapshot = std::min(MinSnapshot, S.SnapshotSeq);
    for (const auto &[Chunk, B] : Arrived)
      MinSnapshot = std::min(MinSnapshot, B.SnapshotSeq);
    Detector.pruneEpochsThrough(MinSnapshot);
  };

  auto commitReport = [&](ChildReport &Rep, int64_t Chunk,
                          unsigned SlotIdx) {
    ++Result.Stats.NumCommitted;
    const uint64_t CommitT0 = Sink.events() ? traceNowNs() : 0;
    const uint64_t CommitR0 = Config.Metrics ? nowNs() : 0;
    Detector.recordCommitEpoch(Rep.Writes);
    // Write-ahead: journal before applying (see ForkJoinExecutor — a
    // crash in the gap replays this chunk by re-execution on restart).
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
      Config.Allocator->advanceBump(SlotIdx + 1, Rep.BumpOffset);
    // Mirror the commit into the warm template so later warm forks see
    // it; the chunk id doubles as the reuse commit-gate for the slot.
    if (Pool)
      Pool->pushCommit(SlotIdx + 1, Chunk, Rep);
    if (Config.Metrics) {
      Result.Metrics.record(HistogramId::CommitNs, nowNs() - CommitR0);
      Result.Metrics.addCounter(CounterId::ParentCommits);
    }
    Result.CommitOrder.push_back(Chunk);
    ++Committed;
    if (Sink.events())
      Sink.event(TraceEventKind::Commit, /*Worker=*/0, Chunk, CommitT0,
                 traceNowNs() - CommitT0, /*Arg0=*/Rep.Log.dataBytes());
    if (Chunk == DrainChunk)
      DrainChunk = -1;
    RetryCount.erase(Chunk);
  };

  // Called immediately after a failed hasConflictSince, while the
  // detector's conflict witness is still valid.
  auto failReport = [&](int64_t Chunk) {
    ++Result.Stats.NumRetries;
    // A conflict shows this loop's chunks depend on each other, so stale
    // snapshots cost aborts: catch resident children up from now on.
    // (Conflict-free runs never pay its copy-on-write faults.)
    CatchUp = true;
    if (Pool)
      Pool->engageCatchUp();
    if (Sink.counters())
      Sink.conflict(Chunk, Detector.lastConflictWord());
    if (Sink.events())
      Sink.event(TraceEventKind::Retry, /*Worker=*/0, Chunk, traceNowNs());
    insertPending(Chunk);
    const unsigned Count = ++RetryCount[Chunk];
    // InOrder needs no guard: only the oldest unretired chunk validates,
    // and its solo retry cannot conflict. OutOfOrder chunks can starve
    // behind a stream of committers, so drain the pipe and run them alone.
    if (!InOrder && Count >= StarvationRetryLimit && DrainChunk < 0)
      DrainChunk = Chunk;
  };

  // Retire buffered reports in ascending chunk order (InOrder only).
  auto drainArrived = [&] {
    for (auto It = Arrived.find(NextToRetire); It != Arrived.end();
         It = Arrived.find(NextToRetire)) {
      BufferedReport B = std::move(It->second);
      Arrived.erase(It);
      Slots[B.SlotIdx].St = Slot::State::Free;
      const uint64_t ValT0 = Sink.events() ? traceNowNs() : 0;
      const uint64_t ValR0 = Config.Metrics ? nowNs() : 0;
      faultParentKillPoint(); // crash-restart: parent dies at validate
      const bool Conflicts = Detector.hasConflictSince(
          B.SnapshotSeq, B.Rep.Reads, B.Rep.Writes);
      if (Config.Metrics) {
        Result.Metrics.record(HistogramId::ValidateNs, nowNs() - ValR0);
        Result.Metrics.addCounter(CounterId::ParentValidates);
      }
      if (Sink.events())
        Sink.event(TraceEventKind::Validate, /*Worker=*/0, NextToRetire,
                   ValT0, traceNowNs() - ValT0, /*Arg0=*/Conflicts ? 1 : 0,
                   /*Arg1=*/Detector.lastConflictWord());
      if (Conflicts) {
        failReport(NextToRetire);
        break;
      }
      commitReport(B.Rep, NextToRetire, B.SlotIdx);
      ++NextToRetire;
    }
  };

  // Parent side of one completed child: reap it, decode its message, and
  // validate/commit/requeue per the commit-order policy. A crashed child
  // or rejected message is contained to the chunk (chunkFault); only the
  // access-set cap escalates straight to a run-level Crash, because the
  // same chunk would overflow again on retry.
  auto completeSlot = [&](unsigned SlotIdx) {
    Slot &S = Slots[SlotIdx];
    Result.Stats.WireBytesCopied += S.Ch.BytesCopied;
    if (S.Ch.Warm) {
      // The template reaped the child; its doorbell told us how it died.
      if (S.Ch.Abnormal) {
        ++Result.Stats.NumChildCrashes;
        S.St = Slot::State::Free;
        S.Ch.Buf.clear();
        chunkFault(S.Chunk, "pooled child terminated abnormally");
        return;
      }
    } else {
      int Status = 0;
      ChildRusage Usage;
      if (waitpidRusage(S.Ch.DirectPid, &Status, &Usage) < 0) {
        ++Result.Stats.NumChildCrashes;
        S.St = Slot::State::Free;
        S.Ch.Buf.clear();
        chunkFault(S.Chunk, "waitpid failure");
        return;
      }
      Result.Stats.addChildUsage(Usage);
      if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
        ++Result.Stats.NumChildCrashes;
        S.St = Slot::State::Free;
        S.Ch.Buf.clear();
        chunkFault(S.Chunk, strprintf("terminated abnormally (status 0x%x)",
                                      Status));
        return;
      }
    }
    ChildReport Rep;
    std::string Error;
    if (!decodeChildReport(S.Ch.Buf, Spec, Config.Params, Rep, Error)) {
      ++Result.Stats.NumWireRejects;
      S.St = Slot::State::Free;
      S.Ch.Buf.clear();
      chunkFault(S.Chunk, "rejected commit message: " + Error);
      return;
    }
    S.Ch.Buf.clear();
    if (Rep.LimitExceeded) {
      Crashed = true;
      // Record the blown access sets before bailing: the run dies, but
      // the telemetry must still show the read-set blowup that killed it
      // (AggloClust under OutOfOrder retries grows monotone merge read
      // sets until they hit the cap — invisible if dropped here).
      Result.Stats.ReadSetWords.add(
          static_cast<double>(Rep.Reads.sizeWords()));
      Result.Stats.WriteSetWords.add(
          static_cast<double>(Rep.Writes.sizeWords()));
      // Indict the earliest uncommitted chunk, not the one that tripped
      // the cap. The tripping chunk's set usually blew up re-validating
      // against snapshots that are stale only because an earlier chunk
      // has not retired; the ladder resolves the indicted chunk solo and
      // then re-runs the tail, so pointing it at the head-of-line
      // blocker lets the tripping chunk retry with fresh, small sets
      // instead of overflowing again in quarantine.
      int64_t Earliest = S.Chunk;
      for (const Slot &Other : Slots)
        if (&Other != &S && Other.St != Slot::State::Free)
          Earliest = std::min(Earliest, Other.Chunk);
      if (!Arrived.empty())
        Earliest = std::min(Earliest, Arrived.begin()->first);
      if (!Pending.empty()) // sorted: the front is the oldest runnable
        Earliest = std::min(Earliest, Pending.front());
      if (InOrder)
        Earliest = std::min(Earliest, NextToRetire);
      Result.FailedChunk = Earliest;
      CrashDetail = strprintf(
          "worker %u (chunk %lld) exceeded the access-set memory cap "
          "(earliest uncommitted chunk %lld indicted)",
          SlotIdx, static_cast<long long>(S.Chunk),
          static_cast<long long>(Earliest));
      S.St = Slot::State::Free;
      return;
    }
    ++Result.Stats.NumTransactions;
    Result.Stats.ReadSetWords.add(static_cast<double>(Rep.Reads.sizeWords()));
    Result.Stats.WriteSetWords.add(
        static_cast<double>(Rep.Writes.sizeWords()));
    Result.Stats.InstrReadCalls += Rep.InstrReadCalls;
    Result.Stats.InstrWriteCalls += Rep.InstrWriteCalls;
    Result.Stats.BytesRead += Rep.BytesRead;
    Result.Stats.BytesWritten += Rep.BytesWritten;
    Result.Stats.WireBytes += Rep.WireBytes;
    Result.Stats.WireBytesRaw += Rep.RawWireBytes;
    Result.Stats.WorkerBusyNs += Rep.WorkNs;
    Sink.absorbChild(Rep.Trace);
    if (Config.Metrics)
      Result.Metrics.merge(Rep.Metrics);

    if (InOrder && S.Chunk != NextToRetire) {
      // Too early to retire: park the report, keep the slot's arena
      // reserved for its allocations, and free the worker for other work.
      Arrived.emplace(S.Chunk,
                      BufferedReport{std::move(Rep), S.SnapshotSeq, SlotIdx});
      S.St = Slot::State::Reserved;
      return;
    }
    S.St = Slot::State::Free;
    const uint64_t ValT0 = Sink.events() ? traceNowNs() : 0;
    const uint64_t ValR0 = Config.Metrics ? nowNs() : 0;
    faultParentKillPoint(); // crash-restart: parent dies at validate
    const bool Conflicts =
        Detector.hasConflictSince(S.SnapshotSeq, Rep.Reads, Rep.Writes);
    if (Config.Metrics) {
      Result.Metrics.record(HistogramId::ValidateNs, nowNs() - ValR0);
      Result.Metrics.addCounter(CounterId::ParentValidates);
    }
    if (Sink.events())
      Sink.event(TraceEventKind::Validate, /*Worker=*/0, S.Chunk, ValT0,
                 traceNowNs() - ValT0, /*Arg0=*/Conflicts ? 1 : 0,
                 /*Arg1=*/Detector.lastConflictWord());
    if (Conflicts) {
      failReport(S.Chunk);
      return;
    }
    commitReport(Rep, S.Chunk, SlotIdx);
    if (InOrder) {
      ++NextToRetire;
      drainArrived();
    }
    pruneEpochs();
  };

  while (Committed != NumChunks) {
    if (shutdownRequested()) {
      // Graceful wind-down: stop dispatching, SIGKILL and reap every live
      // child (finishStats retires an unsuccessful run's template and its
      // residents synchronously), and surface a valid partial result.
      killInFlight();
      Result.Status = RunStatus::Interrupted;
      Result.Detail = strprintf(
          "interrupted by shutdown request (signal %d) with %lld of %lld "
          "chunks committed",
          shutdownSignal(), static_cast<long long>(Committed),
          static_cast<long long>(NumChunks));
      if (Sink.events())
        Sink.event(TraceEventKind::Interrupt, /*Worker=*/0, /*Chunk=*/-1,
                   traceNowNs(), 0,
                   /*Arg0=*/static_cast<uint64_t>(Committed));
      finishStats();
      return Result;
    }
    fillSlots();
    if (Crashed) {
      killInFlight();
      Result.Status = RunStatus::Crash;
      Result.Detail = CrashDetail;
      finishStats();
      return Result;
    }

    std::vector<pollfd> Fds;
    std::vector<unsigned> FdSlots;
    for (unsigned I = 0; I != P; ++I) {
      if (Slots[I].St != Slot::State::Running)
        continue;
      Fds.push_back({Slots[I].Ch.PollFd, POLLIN, 0});
      FdSlots.push_back(I);
    }

    if (Fds.empty()) {
      // Every launch attempt failed this iteration (transient fork/pipe
      // exhaustion): back off briefly instead of spinning, then retry.
      // Two consecutive all-fail sweeps mean the environment cannot
      // sustain the requested parallelism at all — halve it (never below
      // one) so the retries demand fewer simultaneous children.
      if (!Pending.empty() && ++FailedSweeps >= 2 && ActiveP > 1) {
        ActiveP = std::max(1u, ActiveP / 2);
        ++Result.Stats.ResourceFaults;
        ++Result.Stats.ParallelismDowngrades;
        if (Sink.events())
          Sink.event(TraceEventKind::Downgrade, /*Worker=*/0, /*Chunk=*/-1,
                     traceNowNs(), 0, /*Arg0=*/1, /*Arg1=*/ActiveP);
        FailedSweeps = 0;
      }
      ::poll(nullptr, 0, 1);
    } else {
      FailedSweeps = 0;
      // With a deadline armed, wake periodically even if no child reports,
      // so a runaway chunk cannot postpone the timeout check indefinitely.
      const int PollTimeoutMs = DeadlineNs == 0 ? -1 : 100;
      const uint64_t PollT0 = Sink.events() ? traceNowNs() : 0;
      int Ready;
      do {
        Ready = ::poll(Fds.data(), Fds.size(), PollTimeoutMs);
      } while (Ready < 0 && errno == EINTR);
      if (Sink.events() && Ready >= 0)
        Sink.event(TraceEventKind::PollWake, /*Worker=*/0, /*Chunk=*/-1,
                   PollT0, traceNowNs() - PollT0,
                   /*Arg0=*/static_cast<uint64_t>(Ready),
                   /*Arg1=*/static_cast<uint64_t>(Fds.size()));
      sampleTimeline(/*Force=*/false);
      if (Ready < 0) {
        killInFlight();
        Result.Status = RunStatus::Crash;
        Result.Detail = "poll() failed in pipeline executor";
        finishStats();
        return Result;
      }

      for (size_t F = 0; F != Fds.size(); ++F) {
        if (!(Fds[F].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        Slot &S = Slots[FdSlots[F]];
        // Pump whatever arrived (pipe bytes or ring records); when the
        // record is complete — EOF on a cold pipe, a whole frame or a
        // terminal doorbell on a warm ring — retire the slot. Truncated
        // buffers are rejected by the decode inside completeSlot,
        // containing the failure to this chunk.
        if (!pumpChunkChannel(Pool.get(), FdSlots[F], S.Ch))
          continue;
        completeSlot(FdSlots[F]);
        if (Crashed) {
          killInFlight();
          Result.Status = RunStatus::Crash;
          Result.Detail = CrashDetail;
          finishStats();
          return Result;
        }
      }
    }

    if (DeadlineNs != 0 &&
        AccumulatedSimNs + (nowNs() - RealStart) > DeadlineNs) {
      killInFlight();
      Result.Status = RunStatus::Timeout;
      Result.Detail =
          "pipelined execution time exceeded the 10x-sequential deadline";
      finishStats();
      return Result;
    }
  }

  assert(Arrived.empty() && "buffered reports outlived the run");
  finishStats();
  return Result;
}
