//===- runtime/DispatchCore.h - Shared mechanism of the fork engines -*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mechanism both fork engines run on. ForkJoinExecutor (rounds) and
/// PipelineExecutor (continuous feed) differ only in when they launch a
/// chunk and what they validate it against — their policies. Every other
/// job is done here, once:
///
///  - pool construction, and the downgrade to the cold pipe transport when
///    the rings or pipes cannot be set up;
///  - launching a chunk: the fault-plan take, SignalStorm and ForkFail, the
///    spawn, warm/cold counting and the Fork event;
///  - waiting on and pumping the in-flight channels;
///  - reaping and decoding a finished child, with crash and wire-reject
///    classification, and the per-report stats;
///  - the per-chunk fault budget;
///  - applying a validated commit;
///  - end-of-run accounting and the run_done log line.
///
/// One DispatchCore lives for one run() and owns that run's RunResult.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_DISPATCHCORE_H
#define ALTER_RUNTIME_DISPATCHCORE_H

#include "runtime/ConflictDetector.h"
#include "runtime/TraceSink.h"
#include "runtime/WorkerPool.h"

#include <map>
#include <memory>
#include <poll.h>
#include <string>
#include <vector>

namespace alter {

class DispatchCore {
public:
  /// Starts one run of \p Spec for the engine named \p Engine in run_done:
  /// reaps \p Parked if it has exited, and on the ring transport builds
  /// the warm pool (\p AllowReuse as for WorkerPool), falling back to the
  /// cold pipe transport when its rings or pipes cannot be set up.
  DispatchCore(const char *Engine, const LoopSpec &Spec,
               const ExecutorConfig &Config, ParkedChild &Parked,
               bool AllowReuse);

  DispatchCore(const DispatchCore &) = delete;
  DispatchCore &operator=(const DispatchCore &) = delete;

  /// Outcome of launch().
  enum class Launch {
    Running,     ///< a child runs the chunk on the slot
    Failed,      ///< fork/pipe failure (or injected ForkFail), counted
    Interrupted, ///< an injected SignalStorm latched a shutdown request
  };

  /// Launches \p Chunk on the idle \p Slot (arena index Slot + 1). With
  /// metrics on, raises the peak_inflight gauge.
  Launch launch(unsigned Slot, int64_t Chunk);

  /// The slot's channel, valid after its launch.
  const ChunkChannel &channel(unsigned Slot) const { return Channels[Slot]; }

  /// Launched slots whose child has not been collected yet.
  unsigned running() const;

  /// True while some launched child's record is still arriving.
  bool awaiting() const;

  /// Waits up to \p TimeoutMs (-1: no limit) for an awaited channel to
  /// become readable. Returns poll's result; 0 when a signal interrupted
  /// the wait.
  int waitInFlight(int TimeoutMs);

  /// Pumps the channels the last waitInFlight found readable and returns
  /// the slots whose record is now complete, in slot order. With metrics
  /// on, first raises the peak_ring_depth_bytes gauge.
  const std::vector<unsigned> &pumpReady();

  /// Kills every awaited child; its completion still arrives through
  /// pumpReady.
  void killInFlight();

  /// Reaps \p Slot's finished child and decodes its record into \p Rep.
  /// On a crash or a rejected record counts it, describes it in \p Why and
  /// returns false. Otherwise absorbs the child's trace and metrics and
  /// counts the report; a report that overflowed the access-set cap adds
  /// only its set sizes, because it never validates.
  bool collect(unsigned Slot, ChildReport &Rep, std::string &Why);

  /// Charges one contained failure (\p Why) to \p Chunk. Returns false
  /// once the chunk has failed more than ChunkFaultRetryLimit times, with
  /// Result.FailedChunk and Result.Detail describing the crash.
  bool containFault(int64_t Chunk, const std::string &Why);

  /// Applies a validated commit of \p Chunk, run on \p Slot: journal,
  /// write log, reductions, arena cursor and template push, then the
  /// commit metrics, CommitOrder and the Commit event. The caller has
  /// counted it and recorded its write set with the detector.
  void commit(ChildReport &Rep, int64_t Chunk, unsigned Slot);

  /// Emits the Interrupt event and returns the Interrupted run's detail.
  std::string noteInterrupt();

  /// Ends the run: kills and reaps whatever is still running, fills the
  /// end-of-run stats (with \p SimIsReal, the modeled clock is the real
  /// one), parks a successful run's template (retires any other's), logs
  /// run_done, and returns the result.
  RunResult finish(RunStatus Status, std::string Detail,
                   bool SimIsReal = false);

  const LoopSpec &Spec;
  const ExecutorConfig &Config;
  const int64_t Cf;
  const int64_t NumChunks;
  RunResult Result;
  ConflictDetector Detector;
  TraceSink Sink;
  std::unique_ptr<WorkerPool> Pool;
  uint64_t RealStart = 0;

private:
  bool awaited(unsigned Slot) const {
    return Busy[Slot] && !Channels[Slot].Done;
  }

  const char *Engine;
  ParkedChild &Parked;
  std::vector<ChunkChannel> Channels;
  std::vector<bool> Busy; // launched and not yet collected
  std::map<int64_t, unsigned> FaultCounts;
  std::vector<pollfd> PollFds;
  std::vector<unsigned> PollSlots;
  std::vector<unsigned> Completed;
};

} // namespace alter

#endif // ALTER_RUNTIME_DISPATCHCORE_H
