//===- runtime/PipelineExecutor.cpp ---------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/PipelineExecutor.h"

#include "runtime/CostModel.h"
#include "runtime/DispatchCore.h"
#include "runtime/ShutdownSupervisor.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <poll.h>
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
  // Calibrate the cost model here, outside every timed run(): the schedule
  // planner that drives this engine prices loops with it.
  CostModel::calibrated();
}

ChildRusage PipelineExecutor::release() {
  Parked.reap(/*Block=*/true);
  return Parked.takeUsage();
}

RunResult PipelineExecutor::run(const LoopSpec &Spec) {
  assert(Spec.Body && "loop has no body");
  // The pipeline's per-slot snapshot validation makes child reuse sound
  // here (unlike ForkJoin's round-local validation).
  DispatchCore Core("pipeline", Spec, Config, Parked, /*AllowReuse=*/true);
  RunResult &Result = Core.Result;
  ConflictDetector &Detector = Core.Detector;
  TraceSink &Sink = Core.Sink;
  const uint64_t NumChunks = static_cast<uint64_t>(Core.NumChunks);
  const unsigned P = Config.NumWorkers;
  const bool InOrder =
      Config.Params.CommitOrder == CommitOrderPolicy::InOrder;
  const uint64_t DeadlineNs =
      Config.SeqBaselineNs == 0
          ? 0
          : static_cast<uint64_t>(DeadlineFactor *
                                  static_cast<double>(Config.SeqBaselineNs));

  // Pending chunks, kept sorted ascending at all times: initial chunks are
  // created in order and retried chunks re-enter by sorted insertion, so
  // the front is always the oldest runnable chunk.
  std::deque<int64_t> Pending;
  for (int64_t C = 0; C != Core.NumChunks; ++C)
    Pending.push_back(C);

  std::vector<Slot> Slots(P);
  std::map<int64_t, BufferedReport> Arrived; // InOrder retirement buffer
  std::map<int64_t, unsigned> RetryCount;
  int64_t NextToRetire = 0; // InOrder: the only chunk allowed to commit
  int64_t DrainChunk = -1; // starvation guard target, -1 when inactive
  // Set at the first failed validation: from then on resident children
  // replay the commits they missed at each redispatch (WorkerPool).
  bool CatchUp = false;
  // Effective parallelism, shrunk (never below 1) when the environment
  // cannot even sustain the launches — see the all-fail sweep backoff.
  unsigned ActiveP = P;
  unsigned FailedSweeps = 0;
  // A run-level Crash is pending; Result.Detail describes it.
  bool Crashed = false;

  // Every exit path: the real parallel engine's modeled clock is its real
  // clock.
  auto finish = [&](RunStatus Status, std::string Detail) {
    RunResult R = Core.finish(Status, std::move(Detail));
    R.Stats.SimTimeNs = R.Stats.RealTimeNs;
    return R;
  };

  auto insertPending = [&](int64_t Chunk) {
    Pending.insert(std::lower_bound(Pending.begin(), Pending.end(), Chunk),
                   Chunk);
  };

  // Contained per-chunk failure: requeue for a clean retry, or — once the
  // chunk has burned its fault budget — flag the whole run as a Crash the
  // caller can recover from sequentially.
  auto chunkFault = [&](int64_t Chunk, const std::string &Why) {
    if (Core.containFault(Chunk, Why))
      insertPending(Chunk);
    else
      Crashed = true;
  };

  auto forkChunk = [&](unsigned SlotIdx, int64_t Chunk) {
    switch (Core.launch(SlotIdx, Chunk)) {
    case DispatchCore::Launch::Interrupted:
      insertPending(Chunk); // the main loop winds down into Interrupted
      return;
    case DispatchCore::Launch::Failed:
      chunkFault(Chunk, "fork/pipe failure");
      return;
    case DispatchCore::Launch::Running:
      break;
    }
    Slot &S = Slots[SlotIdx];
    const ChunkChannel &Ch = Core.channel(SlotIdx);
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
    // soundness. (This also pins epoch pruning below that seq; the pool's
    // reuse chain cap bounds how far it can lag.)
    if (!Ch.Reused || CatchUp)
      S.SnapshotSeq = Detector.commitSeq();
    // Ring children stay resident after completion, so their snapshot
    // must pin pruning across the slot's Free gaps; a cold child is gone
    // once its record is in.
    S.PinSnapshot = Ch.Warm;
  };

  // Keep every slot busy: the continuous feed that replaces the round
  // barrier. Under the starvation guard only the starving chunk may fork,
  // and only once the pipeline has drained, which guarantees it validates
  // against zero concurrent commits and therefore commits.
  auto fillSlots = [&] {
    if (DrainChunk >= 0) {
      if (Core.running() != 0)
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

  // Validates a report against every commit made since its snapshot.
  // Returns true when it may commit.
  auto validate = [&](int64_t Chunk, uint64_t SnapshotSeq,
                      const ChildReport &Rep) {
    const uint64_t ValT0 = Sink.events() ? traceNowNs() : 0;
    const uint64_t ValR0 = Config.Metrics ? nowNs() : 0;
    faultParentKillPoint(); // crash-restart: parent dies at validate
    const bool Conflicts =
        Detector.hasConflictSince(SnapshotSeq, Rep.Reads, Rep.Writes);
    if (Config.Metrics) {
      Result.Metrics.record(HistogramId::ValidateNs, nowNs() - ValR0);
      Result.Metrics.addCounter(CounterId::ParentValidates);
    }
    if (Sink.events())
      Sink.event(TraceEventKind::Validate, /*Worker=*/0, Chunk, ValT0,
                 traceNowNs() - ValT0, /*Arg0=*/Conflicts ? 1 : 0,
                 /*Arg1=*/Detector.lastConflictWord());
    return !Conflicts;
  };

  auto commitReport = [&](ChildReport &Rep, int64_t Chunk,
                          unsigned SlotIdx) {
    ++Result.Stats.NumCommitted;
    Detector.recordCommitEpoch(Rep.Writes);
    Core.commit(Rep, Chunk, SlotIdx);
    if (Chunk == DrainChunk)
      DrainChunk = -1;
    RetryCount.erase(Chunk);
  };

  // Called immediately after a failed validation, while the detector's
  // conflict witness is still valid.
  auto failReport = [&](int64_t Chunk) {
    ++Result.Stats.NumRetries;
    // A conflict shows this loop's chunks depend on each other, so stale
    // snapshots cost aborts: catch resident children up from now on.
    // (Conflict-free runs never pay its copy-on-write faults.)
    CatchUp = true;
    if (Core.Pool)
      Core.Pool->engageCatchUp();
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
      if (!validate(NextToRetire, B.SnapshotSeq, B.Rep)) {
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
    S.St = Slot::State::Free;
    ChildReport Rep;
    std::string Why;
    if (!Core.collect(SlotIdx, Rep, Why)) {
      chunkFault(S.Chunk, Why);
      return;
    }
    if (Rep.LimitExceeded) {
      Crashed = true;
      // Indict the earliest uncommitted chunk, not the one that tripped
      // the cap. The tripping chunk's set usually blew up re-validating
      // against snapshots that are stale only because an earlier chunk
      // has not retired; the ladder resolves the indicted chunk solo and
      // then re-runs the tail, so pointing it at the head-of-line
      // blocker lets the tripping chunk retry with fresh, small sets
      // instead of overflowing again in quarantine.
      int64_t Earliest = S.Chunk;
      for (const Slot &Other : Slots)
        if (Other.St != Slot::State::Free)
          Earliest = std::min(Earliest, Other.Chunk);
      if (!Arrived.empty())
        Earliest = std::min(Earliest, Arrived.begin()->first);
      if (!Pending.empty()) // sorted: the front is the oldest runnable
        Earliest = std::min(Earliest, Pending.front());
      if (InOrder)
        Earliest = std::min(Earliest, NextToRetire);
      Result.FailedChunk = Earliest;
      Result.Detail = strprintf(
          "worker %u (chunk %lld) exceeded the access-set memory cap "
          "(earliest uncommitted chunk %lld indicted)",
          SlotIdx, static_cast<long long>(S.Chunk),
          static_cast<long long>(Earliest));
      return;
    }

    if (InOrder && S.Chunk != NextToRetire) {
      // Too early to retire: park the report, keep the slot's arena
      // reserved for its allocations, and free the worker for other work.
      Arrived.emplace(S.Chunk,
                      BufferedReport{std::move(Rep), S.SnapshotSeq, SlotIdx});
      S.St = Slot::State::Reserved;
      return;
    }
    if (!validate(S.Chunk, S.SnapshotSeq, Rep)) {
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

  while (Result.Stats.NumCommitted != NumChunks) {
    // Graceful wind-down: stop dispatching; finish kills and reaps every
    // live child and retires an unsuccessful run's template and its
    // residents synchronously, leaving a valid partial result.
    if (shutdownRequested())
      return finish(RunStatus::Interrupted, Core.noteInterrupt());
    fillSlots();
    if (Crashed)
      return finish(RunStatus::Crash, Result.Detail);

    if (Core.running() == 0) {
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
      const int Ready = Core.waitInFlight(DeadlineNs == 0 ? -1 : 100);
      Core.sample(/*Force=*/false);
      if (Ready < 0)
        return finish(RunStatus::Crash, "poll() failed in pipeline executor");
      for (const unsigned SlotIdx : Core.pumpReady()) {
        completeSlot(SlotIdx);
        if (Crashed)
          return finish(RunStatus::Crash, Result.Detail);
      }
    }

    if (DeadlineNs != 0 &&
        AccumulatedSimNs + (nowNs() - Core.RealStart) > DeadlineNs)
      return finish(
          RunStatus::Timeout,
          "pipelined execution time exceeded the 10x-sequential deadline");
  }

  assert(Arrived.empty() && "buffered reports outlived the run");
  return finish(RunStatus::Success, std::string());
}
