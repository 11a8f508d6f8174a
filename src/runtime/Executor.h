//===- runtime/Executor.h - Loop execution engines --------------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executor interface and shared configuration. Five engines implement
/// it:
///
///  - SequentialExecutor: reference execution (and dependence probing).
///  - LockstepExecutor: the in-process engine. It runs each round's chunks
///    on threads in buffered-write contexts and retires the round on the
///    calling thread, and it also reports a modeled parallel clock
///    (CostModel, DESIGN.md §2) for sweeps wider than the host.
///  - ForkJoinExecutor: the paper's process-based fork–join engine using
///    real fork() isolation; it retires each round through the same
///    barrier step as LockstepExecutor (runtime/Round.h).
///  - PipelineExecutor: the continuous-feed process engine — no rounds,
///    each child's report validates against the commits since its
///    snapshot. Both process engines run on DispatchCore.
///  - StagePipelineExecutor: the PS-DSWP stage pipeline (one sequential
///    stage in the parent, resident replica children for the other).
///
/// The lock-step engines (Lockstep, ForkJoin) are deterministic: output
/// depends only on (program input, NumWorkers, chunk factor, runtime
/// parameters) — paper §4.3. The pipelined engines reach an outcome
/// equivalent to a serial execution in their reported CommitOrder.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_EXECUTOR_H
#define ALTER_RUNTIME_EXECUTOR_H

#include "runtime/LoopSpec.h"
#include "runtime/RunResult.h"
#include "runtime/RuntimeParams.h"
#include "runtime/TxnContext.h"
#include "support/Trace.h"

#include <cstdint>
#include <memory>
#include <string>

namespace alter {

class AlterAllocator;
class CommitJournal;

/// Child->parent commit transport used by the fork engines.
enum class TransportKind : uint8_t {
  /// Legacy per-chunk transport: every chunk forks a fresh child from the
  /// full parent and ships its commit message through a pipe. Kept
  /// config-selectable for A/B benchmarking and as the fallback when the
  /// warm pool is unavailable.
  Pipe,
  /// Steady-state transport: children re-fork from a resident warm
  /// template (WorkerPool) and publish commit records into per-slot
  /// shared-memory rings (CommitRing); only 1-byte doorbells cross a pipe.
  Ring,
};

/// Returns "pipe" or "ring".
const char *transportKindName(TransportKind Kind);

/// Process-default transport: TransportKind::Ring unless the
/// ALTER_TRANSPORT environment variable ("pipe" / "ring") says otherwise.
/// Read once on first use; defined in WorkerPool.cpp.
TransportKind globalTransportKind();

/// Overrides the process default (tests and benches).
void setGlobalTransportKind(TransportKind Kind);

/// How the schedule-aware runner (RecoveringLoopRunner) maps a loop onto
/// workers. Auto probes a short prefix and lets the CostModel planner pick
/// between chunked speculation and the stage pipeline; the forced policies
/// skip the probe. Staged falls back to chunked when the LoopSpec carries
/// no stage decomposition.
enum class SchedulePolicy : uint8_t {
  Auto,       ///< planner picks per loop (default)
  Chunked,    ///< force chunked iteration speculation
  Staged,     ///< force the stage pipeline (needs LoopSpec::Stage)
  Sequential, ///< force sequential execution
};

/// Returns "auto", "chunked", "staged", or "sequential".
const char *schedulePolicyName(SchedulePolicy Policy);

/// Parses a schedule-policy name (case-sensitive, as printed by
/// schedulePolicyName). Returns false and leaves \p Policy untouched on
/// anything else.
bool parseSchedulePolicy(const std::string &Text, SchedulePolicy &Policy);

/// The paper's timeout rule (§5): a run taking more than this multiple of
/// the sequential execution time is a Timeout. The engines' deadlines, the
/// loop runners' outer deadline and inference's classification all use it.
constexpr double DeadlineFactor = 10.0;

/// Configuration shared by the parallel executors.
struct ExecutorConfig {
  /// Number of worker processes N (paper §4.1's fork–join width).
  unsigned NumWorkers = 4;

  /// The four runtime parameters of §4.2.
  RuntimeParams Params;

  /// Resource caps applied to each transaction.
  TxnLimits Limits;

  /// Deadline handling: a run whose accumulated (modeled) time exceeds
  /// DeadlineFactor × SeqBaselineNs is flagged Timeout. SeqBaselineNs == 0
  /// disables the rule.
  uint64_t SeqBaselineNs = 0;

  /// Schedule selection for the schedule-aware runner. Engines driven
  /// directly ignore it; RecoveringLoopRunner consults it before choosing
  /// an engine for the loop.
  SchedulePolicy Schedule = SchedulePolicy::Auto;

  /// Per-chunk infrastructure-failure retries (fork failure, child crash,
  /// rejected commit message) the fork engines absorb before giving up on
  /// the run with a contained Crash. Transient faults self-heal on the
  /// first clean retry; persistent ones exhaust the budget quickly so the
  /// degradation ladder (or the inference engine's §5 classification) sees
  /// the Crash promptly.
  unsigned ChunkFaultRetryLimit = 2;

  /// Commit transport for the fork engines. Ring runs chunks from the warm
  /// worker pool and ships commits through shared-memory rings; Pipe is
  /// the fork-per-chunk fallback. Defaults to the ALTER_TRANSPORT-derived
  /// process default at config construction.
  TransportKind Transport = globalTransportKind();

  /// Allocator used for in-loop allocations; may be null when the loop
  /// never allocates.
  AlterAllocator *Allocator = nullptr;

  /// Telemetry level for this run (defaults to the ALTER_TRACE-derived
  /// process level at config construction). Forked children inherit it
  /// through the config and ship their events back in the commit message's
  /// TRACE section.
  TraceLevel Trace = globalTraceLevel();

  /// Metrics collection for this run (defaults to the ALTER_METRICS-derived
  /// process setting). When on, children record per-chunk latency/size
  /// histograms and ship them in the commit frame's METRICS section, the
  /// parent records validate/commit latencies and merges everything into
  /// RunResult::Metrics, and the fork engines sample a timeline. When off,
  /// that section is empty.
  bool Metrics = globalMetricsEnabled();

  /// Optional crash-consistent commit journal (runtime/CommitJournal.h).
  /// When set, every engine appends a frame per committed chunk before
  /// applying its write log, and RecoveringLoopRunner journals its ladder
  /// tiers and drives restart recovery. Owned by the caller; the ladder's
  /// sub-runs deliberately null this out (their chunk indices are local
  /// remappings — the runner re-journals in original coordinates).
  CommitJournal *Journal = nullptr;
};

/// Abstract loop execution engine.
class Executor {
public:
  virtual ~Executor();

  /// Executes \p Spec to completion (or failure) and returns the outcome.
  /// Child CPU time (RunStats::ChildUserNs/ChildSysNs/MaxChildRssBytes)
  /// can lag one run behind: a fork engine's successful run retires its
  /// warm template without waiting, so that lineage's CPU time lands in
  /// the next run() that reaps it, or in release(). A single run() with no
  /// release() reports no warm-child CPU at all.
  virtual RunResult run(const LoopSpec &Spec) = 0;

  /// Informs the engine how much modeled time earlier inner-loop
  /// invocations of the same outer loop have already consumed, so the
  /// 10x-sequential deadline applies to the whole outer execution. The
  /// default ignores it; engines with a modeled clock honor it.
  virtual void setAccumulatedSimNs(uint64_t Ns) { (void)Ns; }

  /// End-of-algorithm step: reaps whatever the engine left running after
  /// its last run() (the fork engines' retired, still-dying warm template)
  /// and returns those processes' CPU time, which no RunResult has
  /// reported yet. The destructor reaps them too but drops the accounting.
  virtual ChildRusage release() { return ChildRusage(); }
};

/// The engines RecoveringLoopRunner and the workload harness choose from.
enum class ParallelEngine {
  ForkJoin, ///< round-barrier fork engine (ForkJoinExecutor)
  Pipeline, ///< continuous-feed fork engine (PipelineExecutor)
  /// Threaded rounds in process (LockstepExecutor). Only for loops that
  /// need nothing a process gives (containment, a journal, fault plans):
  /// RecoveringLoopRunner still runs its ladder on the Pipeline engine.
  Threaded,
};

/// Constructs a fresh instance of the chosen engine. The degradation ladder
/// uses this to spin up solo executors from the committed snapshot;
/// defined in LoopRunner.cpp.
std::unique_ptr<Executor> makeParallelEngine(ParallelEngine Engine,
                                             const ExecutorConfig &Config);

} // namespace alter

#endif // ALTER_RUNTIME_EXECUTOR_H
