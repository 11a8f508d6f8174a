//===- runtime/RunResult.h - Execution outcome and statistics ---*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The outcome of executing an annotated loop, plus the per-run statistics
/// that feed Table 4 (transaction count, read/write-set words per
/// transaction, retry rate) and the speedup figures (simulated and real
/// wall-clock time).
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_RUNRESULT_H
#define ALTER_RUNTIME_RUNRESULT_H

#include "support/Metrics.h"
#include "support/Stats.h"
#include "support/Subprocess.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace alter {

/// How a loop execution ended. Crash/Timeout are detected by the executors
/// themselves (resource caps, 10x-sequential deadline) so that the inference
/// engine can classify candidates exactly as §5 describes.
enum class RunStatus {
  Success, ///< ran to completion
  Crash,   ///< resource exhaustion or abnormal termination
  Timeout, ///< exceeded the configured deadline (10x sequential by default)
  /// A shutdown signal (SIGTERM/SIGINT/SIGHUP) arrived mid-run: the
  /// executor stopped dispatching, killed and reaped every live child, and
  /// returned whatever had committed. Unlike Crash/Timeout this is a clean,
  /// operator-requested stop — the recovery ladder must NOT try to finish
  /// the loop.
  Interrupted,
};

/// Returns "success", "crash", "timeout", or "interrupted".
const char *runStatusName(RunStatus Status);

/// Which schedule a loop actually executed under. RecoveringLoopRunner
/// records it here so benches and the --stage CI gate can assert what the
/// auto policy gave the loop.
enum class ScheduleKind : uint8_t {
  Unknown,    ///< the engine was driven directly, outside the runner
  Sequential, ///< ran on the sequential reference engine
  Chunked,    ///< chunked iteration speculation (fork/lockstep engines)
  Staged,     ///< PS-DSWP stage pipeline (StagePipelineExecutor)
};

/// Returns "unknown", "sequential", "chunked", or "staged".
const char *scheduleKindName(ScheduleKind Kind);

/// Statistics accumulated over one or more loop executions.
struct RunStats {
  /// Transactions that attempted to commit (including retries of the same
  /// chunk; a chunk retried twice counts three attempts).
  uint64_t NumTransactions = 0;
  /// Attempts that validated and committed.
  uint64_t NumCommitted = 0;
  /// Attempts that failed validation and were re-executed.
  uint64_t NumRetries = 0;
  /// Lock-step rounds executed.
  uint64_t NumRounds = 0;
  /// Distribution of read-set sizes (words) per transaction.
  RunningStat ReadSetWords;
  /// Distribution of write-set sizes (words) per transaction.
  RunningStat WriteSetWords;
  /// Instrumentation calls executed (after the §4.1 optimizations; a range
  /// instrumentation counts once).
  uint64_t InstrReadCalls = 0;
  uint64_t InstrWriteCalls = 0;
  /// Data movement performed by the loop bodies, for the bandwidth model.
  uint64_t BytesRead = 0;
  uint64_t BytesWritten = 0;
  /// The clock the 10x deadline and the figures use. The round engines
  /// (Lockstep, ForkJoin) and the stage engine store a modeled parallel
  /// time here (CostModel); the pipeline and sequential engines store real
  /// time, and RecoveringLoopRunner adds the real time of its ladder
  /// tiers.
  uint64_t SimTimeNs = 0;
  /// Real host time spent executing.
  uint64_t RealTimeNs = 0;

  //===--------------------------------------------------------------------===
  // Commit-path instrumentation (compressed wire format)
  //===--------------------------------------------------------------------===

  /// Conflict checks are exact and no engine prefilters them, so these two
  /// stay 0 and merge() skips them; the benchmark ledger (perfbench) is
  /// their last reader.
  uint64_t BloomChecks = 0;
  uint64_t BloomSkips = 0;
  /// Bytes actually shipped child -> parent over the commit pipes
  /// (compressed access sets + write logs).
  uint64_t WireBytes = 0;
  /// Bytes the uncompressed wire format would have shipped for the same
  /// messages; WireBytes / WireBytesRaw is the compression ratio.
  uint64_t WireBytesRaw = 0;
  /// Bytes that actually crossed a kernel pipe for commit transport. On
  /// the Pipe transport this equals WireBytes (the whole message is
  /// copied); on the Ring transport records travel through shared memory
  /// and only the 1-byte doorbells are copied, so this is ~0.
  uint64_t WireBytesCopied = 0;

  //===--------------------------------------------------------------------===
  // Warm worker pool (TransportKind::Ring steady state)
  //===--------------------------------------------------------------------===

  /// Chunks forked from the warm template process.
  uint64_t WarmForks = 0;
  /// Chunks forked cold from the full parent: every fork on the Pipe
  /// transport, plus Ring-transport fallbacks when the pool was
  /// unavailable.
  uint64_t ColdForks = 0;
  /// Chunks dispatched to an already-resident child with no fork at all
  /// (the fork-free steady state; pipeline engine, Ring transport).
  /// Counted inside WarmForks — a reuse is the warmest possible path.
  uint64_t ChildReuses = 0;
  /// Scheduled template respawns. No engine schedules one, so this stays
  /// 0; the benchmark ledger (perfbench) and bench JSON still report it.
  uint64_t TemplateRefreshes = 0;
  /// Pool infrastructure faults absorbed without failing any chunk:
  /// template spawn failures, a dead template discovered on use, and
  /// injected TemplatePoison hits. Each degrades the affected forks to
  /// the cold path.
  uint64_t PoolFaults = 0;

  //===--------------------------------------------------------------------===
  // Stage pipeline (StagePipelineExecutor)
  //===--------------------------------------------------------------------===

  /// Times the stage feed blocked: the sequential stage had a chunk ready
  /// but every replica of the parallel stage was busy (backpressure), or
  /// the retirement frontier starved waiting on one straggling replica.
  uint64_t StageStalled = 0;
  /// Peak number of chunks in flight between the two stages (dispatched
  /// into an inter-stage queue but not yet retired). merge() takes the max:
  /// it is a high-water mark, not a count.
  uint64_t QueueDepthPeak = 0;

  //===--------------------------------------------------------------------===
  // Worker occupancy (straggler accounting)
  //===--------------------------------------------------------------------===

  /// Worker-ns spent executing chunk bodies (summed across workers).
  uint64_t WorkerBusyNs = 0;
  /// Worker-ns of capacity the run had available: NumWorkers x executor
  /// wall-clock, summed across inner-loop invocations.
  uint64_t WorkerSlotNs = 0;

  //===--------------------------------------------------------------------===
  // Child CPU accounting (wait4/getrusage at reap time). Separating CPU
  // time from wall time makes host oversubscription visible: a run whose
  // children burned 4x its wall clock in CPU really ran 4-wide; one whose
  // CPU equals its wall clock serialized.
  //===--------------------------------------------------------------------===

  /// User-mode CPU ns summed over reaped children. Warm (template-forked)
  /// children are reaped by the template, so their usage arrives
  /// transitively when the template itself is reaped: by the run that
  /// reaps it, or by the runner's end-of-algorithm release step.
  uint64_t ChildUserNs = 0;
  /// System-mode CPU ns summed over reaped children.
  uint64_t ChildSysNs = 0;
  /// Peak resident set across reaped children (max-merged).
  uint64_t MaxChildRssBytes = 0;

  //===--------------------------------------------------------------------===
  // Fault containment and recovery (speculative failures that did NOT
  // abort the run: each was contained to its chunk and retried, or the
  // whole run completed through the sequential fallback)
  //===--------------------------------------------------------------------===

  /// fork()/pipe() attempts that failed; the chunk was requeued.
  uint64_t NumForkFailures = 0;
  /// Children that died abnormally (signal or nonzero exit) before
  /// reporting; each crash was contained to its chunk.
  uint64_t NumChildCrashes = 0;
  /// Commit messages rejected by the wire framing (truncation, length
  /// mismatch, CRC failure, or structural decode errors).
  uint64_t NumWireRejects = 0;
  /// Iterations completed by the full-tail sequential fallback after the
  /// degradation ladder gave up (RecoveringLoopRunner).
  uint64_t RecoveredIterations = 0;
  /// Chunks (tier 1) or bisection fragments (tier 2) of an indicted chunk
  /// that a solo speculative re-execution committed during salvage.
  uint64_t SalvagedChunks = 0;
  /// Iterations the ladder isolated as poisoned and executed sequentially
  /// under quarantine (tier 3). Bounded by the poisoned chunk's size, never
  /// the tail.
  uint64_t QuarantinedIterations = 0;
  /// Range splits performed while bisecting failing chunks (tier 2).
  uint64_t BisectionRounds = 0;
  /// Environment resource failures (ring mmap, pipe exhaustion, fork
  /// EAGAIN, dispatch-write failure) demoted to contained per-run outcomes
  /// instead of aborting the process.
  uint64_t ResourceFaults = 0;
  /// Times a run retreated from the Ring transport to the cold Pipe path
  /// because shared-memory/pipe setup failed (pool construction or a
  /// mid-run pool rebuild).
  uint64_t TransportDowngrades = 0;
  /// Times an engine shrank its effective worker count after every launch
  /// attempt in a sweep failed (persistent fork/pipe exhaustion); the last
  /// rung before the ladder's sequential floor.
  uint64_t ParallelismDowngrades = 0;
  /// True when any part of the execution ran sequentially against committed
  /// memory (quarantined iterations or the full-tail fallback) — the run
  /// completed, but not entirely speculatively.
  bool Recovered = false;
  /// Bytes appended to the commit journal (frame headers + payloads),
  /// zero when no journal is attached.
  uint64_t JournalBytes = 0;
  /// fdatasync(2) calls the journal's durability policy issued.
  uint64_t JournalFsyncs = 0;
  /// Chunk/range frames replayed from a recovered journal by re-executing
  /// their iterations against rebuilt initial state (restart recovery).
  uint64_t ReplayedChunks = 0;
  /// Wall time spent replaying the journal's committed prefix on restart.
  uint64_t RecoveryNs = 0;

  /// Fraction of worker capacity spent executing bodies. The round-barrier
  /// engine loses occupancy to stragglers (every slot idles until the
  /// slowest chunk of the round finishes); the pipelined engine refills
  /// slots the moment they free.
  double occupancy() const {
    if (WorkerSlotNs == 0)
      return 0.0;
    return static_cast<double>(WorkerBusyNs) /
           static_cast<double>(WorkerSlotNs);
  }

  /// Worker-ns of idle capacity (slots waiting on stragglers, forks, and
  /// commits) while the executor ran.
  uint64_t stragglerStallNs() const {
    return WorkerSlotNs > WorkerBusyNs ? WorkerSlotNs - WorkerBusyNs : 0;
  }

  /// Wire compression ratio (compressed / raw); 1.0 when nothing shipped.
  double wireCompressionRatio() const {
    if (WireBytesRaw == 0)
      return 1.0;
    return static_cast<double>(WireBytes) /
           static_cast<double>(WireBytesRaw);
  }

  /// Fraction of chunk forks served by the warm template (1.0 when every
  /// chunk took the fast path; 0.0 on the Pipe transport).
  double warmForkRate() const {
    const uint64_t Total = WarmForks + ColdForks;
    if (Total == 0)
      return 0.0;
    return static_cast<double>(WarmForks) / static_cast<double>(Total);
  }

  /// Fraction of commit attempts that failed (the paper flags > 50% as
  /// "high conflicts").
  double retryRate() const {
    if (NumTransactions == 0)
      return 0.0;
    return static_cast<double>(NumRetries) /
           static_cast<double>(NumTransactions);
  }

  /// Adds one reaped child's (or template lineage's) wait4 accounting.
  void addChildUsage(const ChildRusage &Usage) {
    ChildUserNs += Usage.UserNs;
    ChildSysNs += Usage.SysNs;
    MaxChildRssBytes = std::max(MaxChildRssBytes, Usage.MaxRssBytes);
  }

  /// Accumulates \p Other into this (used across outer-loop invocations).
  void merge(const RunStats &Other);
};

/// log2(words per conflict-attribution granule): 64 words = 512 bytes.
/// traceSummary charges each failed validation to the granule of its
/// witness word.
constexpr unsigned GranuleShift = 6;

/// The post-run critical-path attribution: 100% of executor wall clock
/// split across the phases the runtime can stall in. Derived from the
/// merged TraceEvents plus the child-side ring-backpressure histogram;
/// OtherNs absorbs the un-witnessed remainder, and if raw attribution
/// overshoots the wall (overlapping windows under the ladder), every phase
/// is scaled down proportionally so the breakdown still sums to the wall.
struct RunProfile {
  uint64_t WallNs = 0;            ///< executor wall clock (RealTimeNs)
  uint64_t DispatchStallNs = 0;   ///< parent polled with nothing in flight
  uint64_t ChildExecNs = 0;       ///< parent polled while children executed
  uint64_t ValidationNs = 0;      ///< serialized conflict checks
  uint64_t CommitLaneNs = 0;      ///< log apply + reductions + pool push
  uint64_t RingBackpressureNs = 0;///< children blocked on full commit rings
  uint64_t LadderNs = 0;          ///< recovery-ladder tiers (salvage,
                                  ///< bisect, quarantine, full tail)
  uint64_t OtherNs = 0;           ///< wall clock no event witnessed
  /// Sum of child ChunkExec event durations, reconciled against the
  /// independently measured RunStats::WorkerBusyNs (WorkNs in each commit
  /// header): busyReconciliation() ~ 1.0 when the trace is trustworthy.
  uint64_t ChunkExecDurNs = 0;
  uint64_t WorkerBusyNs = 0;

  uint64_t attributedNs() const {
    return DispatchStallNs + ChildExecNs + ValidationNs + CommitLaneNs +
           RingBackpressureNs + LadderNs + OtherNs;
  }
  /// Percentage of the wall clock the phases account for (100 +- rounding
  /// by construction; the check.sh --metrics gate asserts 99..101).
  double coveragePct() const {
    return WallNs == 0 ? 0.0
                       : 100.0 * static_cast<double>(attributedNs()) /
                             static_cast<double>(WallNs);
  }
  double busyReconciliation() const {
    return WorkerBusyNs == 0 ? 0.0
                             : static_cast<double>(ChunkExecDurNs) /
                                   static_cast<double>(WorkerBusyNs);
  }
};

/// Outcome of one loop execution (or of an outer loop's worth of them).
struct RunResult {
  RunStatus Status = RunStatus::Success;
  RunStats Stats;
  /// Optional human-readable detail for failures.
  std::string Detail;
  /// Chunk factor the engine actually ran with (params or global default).
  /// The recovery layer needs it to map committed chunk indices back to
  /// iteration ranges; 0 for engines that do not chunk (sequential).
  int64_t ChunkFactorUsed = 0;
  /// The chunk the engine indicts for a Crash (fault-budget exhaustion or
  /// the access-set cap); -1 when the failure has no single culpable chunk
  /// (timeouts, poll failures, successful runs). The degradation ladder
  /// starts its salvage at this chunk.
  int64_t FailedChunk = -1;
  /// Schedule the loop actually ran under (what the auto rule gave it, or
  /// the forced policy). Unknown when the result came from an engine driven
  /// outside the schedule-aware runner.
  ScheduleKind ScheduleUsed = ScheduleKind::Unknown;
  /// Chunk indices in the order they committed. Under OutOfOrder policies a
  /// parallel execution is equivalent to replaying chunks serially in this
  /// order (conflict serializability); tests exploit that. Only the most
  /// recent inner-loop invocation's order is kept when results accumulate.
  std::vector<int64_t> CommitOrder;

  //===--------------------------------------------------------------------===
  // Telemetry (populated by TraceSink when ExecutorConfig::Trace is on)
  //===--------------------------------------------------------------------===

  /// Merged per-run timeline: parent-side events plus the child-side events
  /// shipped in each commit message's TRACE section. Empty at
  /// TraceLevel::Off. The counter tracks and the conflict attribution are
  /// derived from it at report time.
  std::vector<TraceEvent> TraceEvents;
  /// Events that hit the bounded buffers and were counted instead of kept.
  uint64_t TraceEventsDropped = 0;

  //===--------------------------------------------------------------------===
  // Metrics (populated when ExecutorConfig::Metrics is on)
  //===--------------------------------------------------------------------===

  /// Merged metrics: child registries shipped in METRICS wire sections plus
  /// the parent's own validate/commit latencies and high-water gauges.
  MetricsRegistry Metrics;

  /// Accumulates \p Other's telemetry into this (the trace-side companion
  /// of Stats.merge, used across outer-loop invocations).
  void mergeTrace(const RunResult &Other);

  /// Writes the timeline as Chrome trace_event JSON (Perfetto-loadable):
  /// one track per worker slot, plus counter tracks derived from the
  /// parent's events — inflight_chunks from poll_wake Arg1, and the running
  /// totals committed, retries, warm_forks and cold_forks from commit,
  /// retry and fork events. Returns false with \p Error set on I/O errors.
  bool writeChromeTrace(const std::string &Path,
                        std::string *Error = nullptr) const;

  /// Human-readable telemetry report: event counts per kind plus the top-N
  /// granules ranked by aborts caused — the failed validate events, charged
  /// to their witness word's granule — with allocation-site labels.
  std::string traceSummary(size_t TopN = 5) const;

  /// Attributes the executor wall clock to phases from the merged
  /// TraceEvents (requires TraceLevel::Events) and the metrics registry.
  RunProfile computeProfile() const;

  /// Human-readable phase table for --profile: one row per phase with ns,
  /// ms, and percent-of-wall columns, plus the WorkerBusyNs reconciliation
  /// line.
  std::string profileTable() const;

  /// Writes the stable machine-readable metrics report ("alter-metrics-v1"
  /// schema): run stats, CPU accounting, the phase profile, and every
  /// counter/gauge/histogram (all ids present even when empty, so the key
  /// set is schema-stable). Returns false with \p Error set on I/O errors.
  bool writeMetricsJson(const std::string &Path,
                        std::string *Error = nullptr) const;

  /// Logs the one-line end-of-run summary (ALTER_LOG=info) of a run of
  /// the engine named \p Engine.
  void logRunDone(const char *Engine) const;

  bool succeeded() const { return Status == RunStatus::Success; }
};

} // namespace alter

#endif // ALTER_RUNTIME_RUNRESULT_H
