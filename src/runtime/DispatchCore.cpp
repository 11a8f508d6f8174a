//===- runtime/DispatchCore.cpp -------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/DispatchCore.h"

#include "runtime/CommitJournal.h"
#include "runtime/ShutdownSupervisor.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <cerrno>
#include <sys/wait.h>
#include <unistd.h>

using namespace alter;

DispatchCore::DispatchCore(const char *Engine, const LoopSpec &Spec,
                           const ExecutorConfig &Config, ParkedChild &Parked,
                           bool AllowReuse)
    : Spec(Spec), Config(Config),
      Cf(Config.Params.ChunkFactor > 0 ? Config.Params.ChunkFactor
                                       : globalChunkFactor()),
      NumChunks((Spec.NumIterations + Cf - 1) / Cf),
      Detector(Config.Params.Conflict), Sink(Config.Trace), Engine(Engine),
      Parked(Parked), Channels(Config.NumWorkers),
      Busy(Config.NumWorkers, false) {
  Result.ScheduleUsed = ScheduleKind::Chunked;
  Result.ChunkFactorUsed = Cf;
  // The previous run's template has usually finished dying while the outer
  // code ran; reap it now if so.
  Parked.reap(/*Block=*/false);
  // Steady-state transport: the warm template + per-slot commit rings.
  // Pool faults degrade individual forks to the cold pipe path.
  if (Config.Transport == TransportKind::Ring)
    Pool = std::make_unique<WorkerPool>(Spec, Config, Config.NumWorkers,
                                        AllowReuse);
  if (Pool && !Pool->valid()) {
    // Resource exhaustion while building the rings/pipes (ENOMEM/EMFILE):
    // retreat to the cold pipe transport for this run instead of aborting.
    ++Result.Stats.ResourceFaults;
    ++Result.Stats.TransportDowngrades;
    if (Sink.events()) {
      Sink.event(TraceEventKind::ResourceFault, /*Worker=*/0, /*Chunk=*/-1,
                 traceNowNs(), 0, /*Arg0=*/Pool->setupFaultSite());
      Sink.event(TraceEventKind::Downgrade, /*Worker=*/0, /*Chunk=*/-1,
                 traceNowNs(), 0, /*Arg0=*/0, /*Arg1=*/Config.NumWorkers);
    }
    Pool.reset();
  }
  ensureShutdownSupervisorInstalled();
  RealStart = nowNs();
}

DispatchCore::Launch DispatchCore::launch(unsigned Slot, int64_t Chunk) {
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
    // request and let the engine wind down into Interrupted. Nothing
    // failed to fork, so nothing is counted as a fault.
    requestShutdown();
    return Launch::Interrupted;
  }
  // A cold child inherits the other in-flight cold read ends; close them
  // in the child so their EOF semantics stay clean. (Warm slots poll
  // pool-owned doorbells, which carry no EOF.)
  std::vector<int> CloseInChild;
  for (unsigned S = 0; S != Channels.size(); ++S)
    if (awaited(S) && !Channels[S].Warm)
      CloseInChild.push_back(Channels[S].PollFd);
  ChunkChannel &Ch = Channels[Slot];
  if ((Fault.Armed && Fault.Kind == FaultKind::ForkFail) ||
      !spawnChunkChild(Spec, Config, Pool.get(), Slot, Chunk, First, Last,
                       Fault, CloseInChild, Ch)) {
    ++Result.Stats.NumForkFailures;
    ++Result.Stats.ResourceFaults;
    if (Sink.events())
      Sink.event(TraceEventKind::ResourceFault, /*Worker=*/0, Chunk,
                 traceNowNs(), 0, /*Arg0=*/2);
    return Launch::Failed;
  }
  Busy[Slot] = true;
  if (Ch.Warm)
    ++Result.Stats.WarmForks;
  else
    ++Result.Stats.ColdForks;
  if (Config.Metrics)
    Result.Metrics.gaugeMax(GaugeId::PeakInflight, running());
  if (Sink.events())
    Sink.event(TraceEventKind::Fork, /*Worker=*/0, Chunk, traceNowNs(), 0,
               /*Arg0=*/Slot + 1,
               /*Arg1=*/Ch.Reused ? 2 : Ch.Warm ? 1 : 0);
  return Launch::Running;
}

unsigned DispatchCore::running() const {
  return static_cast<unsigned>(std::count(Busy.begin(), Busy.end(), true));
}

bool DispatchCore::awaiting() const {
  for (unsigned S = 0; S != Channels.size(); ++S)
    if (awaited(S))
      return true;
  return false;
}

int DispatchCore::waitInFlight(int TimeoutMs) {
  PollFds.clear();
  PollSlots.clear();
  for (unsigned S = 0; S != Channels.size(); ++S)
    if (awaited(S)) {
      PollFds.push_back({Channels[S].PollFd, POLLIN, 0});
      PollSlots.push_back(S);
    }
  const uint64_t PollT0 = Sink.events() ? traceNowNs() : 0;
  const int N =
      ::poll(PollFds.data(), static_cast<nfds_t>(PollFds.size()), TimeoutMs);
  if (N < 0) {
    PollFds.clear(); // nothing to pump
    return errno == EINTR ? 0 : N;
  }
  if (Sink.events())
    Sink.event(TraceEventKind::PollWake, /*Worker=*/0, /*Chunk=*/-1, PollT0,
               traceNowNs() - PollT0, /*Arg0=*/static_cast<uint64_t>(N),
               /*Arg1=*/static_cast<uint64_t>(PollFds.size()));
  return N;
}

const std::vector<unsigned> &DispatchCore::pumpReady() {
  // Pump whatever arrived (pipe bytes or ring records); a record is
  // complete at EOF on a cold pipe, or on a whole frame or a terminal
  // doorbell on a warm ring. A truncated record is rejected by collect's
  // decode, which contains the failure to its chunk.
  Completed.clear();
  if (Config.Metrics && Pool)
    Result.Metrics.gaugeMax(GaugeId::PeakRingDepthBytes,
                            Pool->ringDepthBytes());
  for (size_t I = 0; I != PollFds.size(); ++I)
    if ((PollFds[I].revents & (POLLIN | POLLHUP | POLLERR)) &&
        pumpChunkChannel(Pool.get(), PollSlots[I], Channels[PollSlots[I]]))
      Completed.push_back(PollSlots[I]);
  PollFds.clear();
  return Completed;
}

void DispatchCore::killInFlight() {
  for (unsigned S = 0; S != Channels.size(); ++S)
    if (awaited(S))
      killChunkChild(Pool.get(), S, Channels[S]);
}

bool DispatchCore::collect(unsigned Slot, ChildReport &Rep,
                           std::string &Why) {
  ChunkChannel &Ch = Channels[Slot];
  Busy[Slot] = false;
  Result.Stats.WireBytesCopied += Ch.BytesCopied;
  if (Ch.Warm) {
    // The template reaped the child; its doorbell carried the verdict.
    if (Ch.Abnormal) {
      ++Result.Stats.NumChildCrashes;
      Why = "pooled child terminated abnormally";
      return false;
    }
  } else {
    int Status = 0;
    ChildRusage Usage;
    if (waitpidRusage(Ch.DirectPid, &Status, &Usage) < 0) {
      ++Result.Stats.NumChildCrashes;
      Why = "waitpid failure";
      return false;
    }
    Result.Stats.addChildUsage(Usage);
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      ++Result.Stats.NumChildCrashes;
      Why = strprintf("terminated abnormally (status 0x%x)", Status);
      return false;
    }
  }
  std::string Error;
  if (!decodeChildReport(Ch.Buf, Spec, Config.Params, Rep, Error)) {
    ++Result.Stats.NumWireRejects;
    Why = "rejected commit message: " + Error;
    return false;
  }
  // A blown access set still counts: the run dies of it, and the set
  // growth that killed it must stay visible.
  Result.Stats.countTransaction(Rep.Counts);
  Sink.absorbChild(Rep.Trace);
  if (Config.Metrics)
    Result.Metrics.merge(Rep.Metrics);
  if (Rep.LimitExceeded)
    return true;
  Result.Stats.WireBytes += Rep.WireBytes;
  Result.Stats.WireBytesRaw += Rep.RawWireBytes;
  Result.Stats.WorkerBusyNs += Rep.WorkNs;
  return true;
}

bool DispatchCore::containFault(int64_t Chunk, const std::string &Why) {
  const unsigned Count = ++FaultCounts[Chunk];
  if (Count > Config.ChunkFaultRetryLimit) {
    Result.FailedChunk = Chunk;
    Result.Detail =
        strprintf("chunk %lld failed %u consecutive attempts (%s)",
                  static_cast<long long>(Chunk), Count, Why.c_str());
    return false;
  }
  if (Sink.events())
    Sink.event(TraceEventKind::FaultContained, /*Worker=*/0, Chunk,
               traceNowNs(), 0, /*Arg0=*/Count);
  return true;
}

void DispatchCore::commit(ChildReport &Rep, int64_t Chunk, unsigned Slot) {
  const uint64_t CommitT0 = Sink.events() ? traceNowNs() : 0;
  const uint64_t CommitR0 = Config.Metrics ? nowNs() : 0;
  // Write-ahead: journal the commit before applying it. A crash in the gap
  // replays the chunk by re-execution, which re-derives these same effects
  // from the rebuilt prefix state.
  if (Config.Journal) {
    const int64_t JFirst = Chunk * Cf;
    const int64_t JLast = std::min<int64_t>(JFirst + Cf, Spec.NumIterations);
    Config.Journal->appendCommit(Chunk, JFirst, JLast);
  }
  faultParentKillPoint(); // crash-restart: parent dies at commit
  // Apply the child's writes verbatim: the ALTER allocator guarantees
  // address disjointness, so this cannot clobber live parent data.
  Rep.Log.apply();
  for (unsigned I = 0; I != Rep.Slots.size(); ++I)
    if (Rep.Slots[I].Active && Rep.Slots[I].Touched)
      TxnContext::commitReductionSlot(Spec.Reductions[I], Rep.Slots[I]);
  if (Config.Allocator)
    Config.Allocator->advanceBump(Slot + 1, Rep.BumpOffset);
  // Stream the commit to the warm template at the exact point it is
  // applied here, so later warm forks snapshot this state; the chunk id
  // doubles as the reuse commit-gate for the slot.
  if (Pool)
    Pool->pushCommit(Slot + 1, Chunk, Rep);
  if (Config.Metrics)
    Result.Metrics.record(HistogramId::CommitNs, nowNs() - CommitR0);
  Result.CommitOrder.push_back(Chunk);
  if (Sink.events())
    Sink.event(TraceEventKind::Commit, /*Worker=*/0, Chunk, CommitT0,
               traceNowNs() - CommitT0, /*Arg0=*/Rep.Log.dataBytes());
}

std::string DispatchCore::noteInterrupt() {
  if (Sink.events())
    Sink.event(TraceEventKind::Interrupt, /*Worker=*/0, /*Chunk=*/-1,
               traceNowNs(), 0, /*Arg0=*/Result.Stats.NumCommitted);
  return strprintf("interrupted by shutdown request (signal %d) with %llu "
                   "of %lld chunks committed",
                   shutdownSignal(),
                   static_cast<unsigned long long>(Result.Stats.NumCommitted),
                   static_cast<long long>(NumChunks));
}

RunResult DispatchCore::finish(RunStatus Status, std::string Detail,
                               bool SimIsReal) {
  // Nothing of an unfinished run outlives it: SIGKILL what is still
  // running and reap the cold children. Warm children are the template's
  // to reap; the retirement below takes care of them.
  for (unsigned S = 0; S != Channels.size(); ++S) {
    if (!Busy[S])
      continue;
    ChunkChannel &Ch = Channels[S];
    if (!Ch.Done)
      killChunkChild(Pool.get(), S, Ch);
    if (!Ch.Warm) {
      if (Ch.PollFd >= 0)
        ::close(Ch.PollFd);
      int WaitStatus = 0;
      ChildRusage Usage;
      if (waitpidRusage(Ch.DirectPid, &WaitStatus, &Usage) > 0)
        Result.Stats.addChildUsage(Usage);
    }
    Busy[S] = false;
  }
  Result.Status = Status;
  Result.Detail = std::move(Detail);
  Result.Stats.RealTimeNs = nowNs() - RealStart;
  if (SimIsReal)
    Result.Stats.SimTimeNs = Result.Stats.RealTimeNs;
  Result.Stats.WorkerSlotNs = Result.Stats.RealTimeNs * Config.NumWorkers;
  if (Pool) {
    Result.Stats.PoolFaults = Pool->poolFaults();
    Result.Stats.ChildReuses = Pool->childReuses();
    if (!Pool->valid()) {
      // The pool died mid-run (failed ring respawn under exhaustion):
      // every later fork already degraded cold; account the downgrade.
      ++Result.Stats.ResourceFaults;
      ++Result.Stats.TransportDowngrades;
    }
    if (Status == RunStatus::Success)
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
  Result.logRunDone(Engine);
  Sink.finish(Result);
  return std::move(Result);
}
