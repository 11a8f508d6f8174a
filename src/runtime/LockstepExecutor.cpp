//===- runtime/LockstepExecutor.cpp ---------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/LockstepExecutor.h"

#include "runtime/CommitJournal.h"
#include "runtime/ConflictDetector.h"
#include "runtime/Round.h"
#include "runtime/ShutdownSupervisor.h"
#include "runtime/TraceSink.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <functional>
#include <system_error>
#include <thread>
#include <vector>

using namespace alter;

namespace {

/// How long a waiter at the round barrier yields its core before blocking
/// in the kernel. A round of the paper's loops lasts tens of microseconds
/// and a futex wake-up costs about as much, so back-to-back rounds stay off
/// the kernel path. The spin yields rather than pauses: on a host with
/// fewer cores than workers, sched_yield hands the core to the thread that
/// has work at once, where a pause spin would burn its time slice.
constexpr uint64_t BarrierSpinNs = 50'000;

/// Waits until \p Word no longer holds \p Old and returns its new value:
/// yields for up to BarrierSpinNs, then blocks until notified.
uint32_t awaitChange(const std::atomic<uint32_t> &Word, uint32_t Old) {
  uint32_t Now = Word.load(std::memory_order_acquire);
  if (Now != Old)
    return Now;
  const uint64_t SpinEnd = nowNs() + BarrierSpinNs;
  do {
    ::sched_yield();
    Now = Word.load(std::memory_order_acquire);
    if (Now != Old)
      return Now;
  } while (nowNs() < SpinEnd);
  while ((Now = Word.load(std::memory_order_acquire)) == Old)
    Word.wait(Old, std::memory_order_acquire);
  return Now;
}

/// The CPUs of \p Allowed, rotated to start at the calling thread's.
std::vector<int> cpusFromHere(const cpu_set_t &Allowed) {
  std::vector<int> Cpus;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Allowed))
      Cpus.push_back(C);
  const auto Here = std::find(Cpus.begin(), Cpus.end(), ::sched_getcpu());
  if (Here != Cpus.end())
    std::rotate(Cpus.begin(), Here, Cpus.end());
  return Cpus;
}

/// Moves the calling thread to \p Cpu, then lets it run anywhere in
/// \p Allowed again: only the starting place is chosen. Best effort.
void startOn(int Cpu, const cpu_set_t &Allowed) {
  cpu_set_t Home;
  CPU_ZERO(&Home);
  CPU_SET(Cpu, &Home);
  ::sched_setaffinity(0, sizeof(Home), &Home);
  ::sched_setaffinity(0, sizeof(Allowed), &Allowed);
}

/// What one worker measured about its chunk, on its own thread.
struct SlotTiming {
  uint64_t StartNs = 0; ///< nowNs() when the chunk began
  uint64_t EndNs = 0;   ///< nowNs() when it was suspended
  uint64_t CpuNs = 0;   ///< thread CPU time of the chunk
};

} // namespace

/// Helper threads for slots 1..N−1. Every helper takes part in every round
/// (an idle slot just checks in), so the caller may rewrite the round's job
/// as soon as the barrier releases. A helper the system refuses to start
/// (thread exhaustion) leaves its slot to the calling thread.
///
/// Helper H starts on the H-th allowed CPU after the caller's and is then
/// free to move. Left alone, the scheduler starts a thread on its
/// creator's CPU, and on a virtual machine whose idle vCPUs look busy the
/// workers of a short loop stayed stacked there and serialized. Pinning
/// them for good fixed that but trapped a helper behind any process that
/// kept its CPU busy, so only the starting place is chosen.
class LockstepExecutor::HelperThreads {
public:
  explicit HelperThreads(unsigned Count) {
    cpu_set_t Allowed;
    CPU_ZERO(&Allowed);
    const bool Known = ::sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0;
    const std::vector<int> Cpus = Known ? cpusFromHere(Allowed)
                                        : std::vector<int>();
    Threads.reserve(Count);
    for (unsigned H = 0; H != Count; ++H) {
      const int Start = Cpus.size() < 2 ? -1 : Cpus[(H + 1) % Cpus.size()];
      try {
        Threads.emplace_back([this, Slot = H + 1, Start, Allowed] {
          if (Start >= 0)
            startOn(Start, Allowed);
          serve(Slot);
        });
      } catch (const std::system_error &) {
        break;
      }
    }
  }

  ~HelperThreads() {
    Stopping = true;
    publish();
    for (std::thread &T : Threads)
      T.join();
  }

  HelperThreads(const HelperThreads &) = delete;
  HelperThreads &operator=(const HelperThreads &) = delete;

  /// Runs \p Job(Slot) for every slot below \p NumSlots — slot 0 and any
  /// slot without a helper on the calling thread — and returns at the
  /// barrier, once all have finished.
  void runRound(unsigned NumSlots, const std::function<void(unsigned)> &Job) {
    CurrentJob = &Job;
    CurrentSlots = NumSlots;
    Outstanding.store(static_cast<uint32_t>(Threads.size()),
                      std::memory_order_relaxed);
    publish();
    Job(0);
    for (size_t Slot = Threads.size() + 1; Slot < NumSlots; ++Slot)
      Job(static_cast<unsigned>(Slot));
    for (uint32_t Left; (Left = Outstanding.load(std::memory_order_acquire));)
      awaitChange(Outstanding, Left);
  }

private:
  void publish() {
    Generation.fetch_add(1, std::memory_order_release);
    Generation.notify_all();
  }

  void serve(unsigned Slot) {
    for (uint32_t Seen = 0;;) {
      Seen = awaitChange(Generation, Seen);
      if (Stopping)
        return;
      if (Slot < CurrentSlots)
        (*CurrentJob)(Slot);
      if (Outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1)
        Outstanding.notify_one();
    }
  }

  /// Bumped once per round (and once to stop); helpers wait on it.
  alignas(64) std::atomic<uint32_t> Generation{0};
  /// Helpers still to check in this round; the caller waits on it.
  alignas(64) std::atomic<uint32_t> Outstanding{0};
  /// The round's job, published by Generation's release.
  const std::function<void(unsigned)> *CurrentJob = nullptr;
  unsigned CurrentSlots = 0;
  bool Stopping = false;
  /// Declared last: the helpers use every member above.
  std::vector<std::thread> Threads;
};

LockstepExecutor::LockstepExecutor(ExecutorConfig Config)
    : Config(std::move(Config)) {
  assert(this->Config.NumWorkers >= 1 && "need at least one worker");
  // Calibrate the modeled clock here, outside every timed run().
  CostModel::calibrated();
}

LockstepExecutor::~LockstepExecutor() = default;

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

  // One buffered-write context per worker, reused across rounds (beginTxn
  // resets state): no chunk writes committed memory before the barrier.
  std::vector<std::unique_ptr<TxnContext>> Contexts;
  Contexts.reserve(P);
  for (unsigned W = 0; W != P; ++W) {
    Contexts.push_back(std::make_unique<TxnContext>(
        ContextMode::Transactional, &Config.Params, &Spec, Config.Allocator,
        /*Worker=*/W + 1, Config.Limits));
    Contexts.back()->enableBufferedWrites();
  }

  // Step 2b, run on slot W's thread: execute the chunk in isolation,
  // tracking read/write sets. It touches only its own context and timing.
  std::vector<RoundTxn> Round;
  std::vector<SlotTiming> Timing(P);
  const std::function<void(unsigned)> RunSlot = [&](unsigned W) {
    TxnContext &Ctx = *Contexts[W];
    SlotTiming &T = Timing[W];
    const int64_t First = Round[W].Chunk * Cf;
    const int64_t Last = std::min<int64_t>(First + Cf, Spec.NumIterations);
    Ctx.beginTxn();
    T.StartNs = nowNs();
    const uint64_t Cpu0 = threadCpuNowNs();
    for (int64_t I = First; I != Last; ++I)
      Spec.Body(Ctx, I);
    Ctx.suspendTxn();
    T.CpuNs = threadCpuNowNs() - Cpu0;
    T.EndNs = nowNs();
  };

  ConflictDetector Detector(Config.Params.Conflict);
  TraceSink Sink(Config.Trace);
  // As in the fork engines: SIGTERM/SIGINT/SIGHUP latch the request polled
  // below instead of killing the process with its journal unsynced.
  ensureShutdownSupervisorInstalled();
  const uint64_t RealStart = nowNs();
  const uint64_t DeadlineSimNs =
      Config.SeqBaselineNs == 0
          ? 0
          : static_cast<uint64_t>(DeadlineFactor *
                                  static_cast<double>(Config.SeqBaselineNs));

  const auto Finish = [&](RunStatus Status, std::string Detail) {
    Result.Status = Status;
    Result.Detail = std::move(Detail);
    Result.Stats.RealTimeNs = nowNs() - RealStart;
    Result.Stats.WorkerSlotNs = Result.Stats.RealTimeNs * P;
    Result.logRunDone("lockstep");
    Sink.finish(Result);
    return std::move(Result);
  };

  while (!Pending.empty()) {
    // Nothing runs between rounds, so a shutdown request stops the run
    // with every committed chunk applied and nothing half-done.
    if (shutdownRequested()) {
      if (Sink.events())
        Sink.event(TraceEventKind::Interrupt, /*Worker=*/0, /*Chunk=*/-1,
                   traceNowNs(), 0, /*Arg0=*/Result.Stats.NumCommitted);
      return Finish(
          RunStatus::Interrupted,
          strprintf("interrupted by shutdown request (signal %d) with %llu "
                    "of %lld chunks committed",
                    shutdownSignal(),
                    static_cast<unsigned long long>(Result.Stats.NumCommitted),
                    static_cast<long long>(NumChunks)));
    }
    ++Result.Stats.NumRounds;
    // Step 2a: workers pick up the next chunks in program order.
    const unsigned RoundSize =
        static_cast<unsigned>(std::min<int64_t>(P, Pending.size()));
    Round.assign(RoundSize, RoundTxn());
    for (unsigned W = 0; W != RoundSize; ++W)
      Round[W].Chunk = Pending[W];
    Pending.erase(Pending.begin(), Pending.begin() + RoundSize);

    // Step 2b on every slot at once; the calling thread is worker 0. The
    // whole window, dispatch to barrier release, is the parent waiting on
    // its workers (the profile's child_exec).
    const uint64_t WindowT0 = Sink.events() ? traceNowNs() : 0;
    if (RoundSize == 1) {
      RunSlot(0);
    } else {
      if (!Helpers)
        Helpers = std::make_unique<HelperThreads>(P - 1);
      Helpers->runRound(RoundSize, RunSlot);
    }
    if (Sink.events())
      Sink.event(TraceEventKind::PollWake, /*Worker=*/0, /*Chunk=*/-1,
                 WindowT0, traceNowNs() - WindowT0, /*Arg0=*/RoundSize,
                 /*Arg1=*/RoundSize);

    // Past the barrier: account for the round in slot order.
    for (unsigned W = 0; W != RoundSize; ++W) {
      TxnContext &Ctx = *Contexts[W];
      const SlotTiming &T = Timing[W];
      const uint64_t BusyNs = T.EndNs - T.StartNs;
      Round[W].Cost.WorkNs = T.CpuNs;
      Round[W].Cost.BytesTouched = Ctx.memTrafficBytes();
      Round[W].Cost.CommitBytes = Ctx.writeLog().dataBytes();
      Result.Stats.WorkerBusyNs += BusyNs;
      if (Sink.events()) {
        const uint64_t StartNs = traceStampNs(T.StartNs);
        Sink.event(TraceEventKind::ChunkExec, /*Worker=*/W + 1,
                   Round[W].Chunk, StartNs, traceStampNs(T.EndNs) - StartNs,
                   /*Arg0=*/Ctx.readSet().sizeWords(),
                   /*Arg1=*/Ctx.writeSet().sizeWords());
      }
      if (Config.Metrics) {
        Result.Metrics.record(HistogramId::ChunkExecNs, BusyNs);
        Result.Metrics.record(HistogramId::WriteLogBytes,
                              Ctx.writeLog().dataBytes());
      }
      // A blown access set still counts, as on the fork engines.
      Result.Stats.countTransaction(Ctx.counts());
      if (Ctx.limitExceeded()) {
        Result.FailedChunk = Round[W].Chunk;
        for (unsigned V = 0; V != RoundSize; ++V)
          Contexts[V]->abortTxn();
        return Finish(
            RunStatus::Crash,
            strprintf("transaction for chunk %lld exceeded the access-set "
                      "memory cap",
                      static_cast<long long>(Round[W].Chunk)));
      }
      Round[W].Reads = &Ctx.readSet();
      Round[W].Writes = &Ctx.writeSet();
    }

    // Step 2c: validate and commit one after another in deterministic
    // (ascending program) order; step 2d: advance the modeled parallel
    // clock past the barrier.
    retireRound(Round, Detector, Sink, Config, Result, Pending,
                [&](unsigned W) {
                  TxnContext &Ctx = *Contexts[W];
                  const int64_t Chunk = Round[W].Chunk;
                  const uint64_t TraceT0 = Sink.events() ? traceNowNs() : 0;
                  const uint64_t CommitT0 = Config.Metrics ? nowNs() : 0;
                  // Write-ahead, as the fork engines: journal the chunk
                  // before its buffered writes reach committed memory.
                  if (Config.Journal)
                    Config.Journal->appendCommit(
                        Chunk, Chunk * Cf,
                        std::min<int64_t>(Chunk * Cf + Cf, Spec.NumIterations));
                  Ctx.commitTxn();
                  if (Config.Metrics)
                    Result.Metrics.record(HistogramId::CommitNs,
                                          nowNs() - CommitT0);
                  Result.CommitOrder.push_back(Chunk);
                  if (Sink.events())
                    Sink.event(TraceEventKind::Commit, /*Worker=*/0, Chunk,
                               TraceT0, traceNowNs() - TraceT0,
                               /*Arg0=*/Ctx.writeLog().dataBytes());
                });
    for (unsigned W = 0; W != RoundSize; ++W)
      if (!Round[W].Cost.Committed)
        Contexts[W]->abortTxn();

    if (DeadlineSimNs != 0 &&
        AccumulatedSimNs + Result.Stats.SimTimeNs > DeadlineSimNs)
      return Finish(RunStatus::Timeout,
                    "modeled execution time exceeded the 10x-sequential "
                    "deadline");
  }
  return Finish(RunStatus::Success, std::string());
}
