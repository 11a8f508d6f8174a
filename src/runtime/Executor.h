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
///  - LockstepExecutor: in-process deterministic engine running ALTER's
///    full transaction protocol with a modeled parallel clock (DESIGN.md
///    §2's substitution for multicore hardware).
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

#include "runtime/CostModel.h"
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

/// Configuration shared by the parallel executors.
struct ExecutorConfig {
  /// Number of worker processes N (paper §4.1's fork–join width).
  unsigned NumWorkers = 4;

  /// The four runtime parameters of §4.2.
  RuntimeParams Params;

  /// Resource caps applied to each transaction.
  TxnLimits Limits;

  /// Deadline handling: a run whose accumulated (modeled) time exceeds
  /// TimeoutFactor × SeqBaselineNs is flagged Timeout, mirroring the
  /// paper's 10× rule. SeqBaselineNs == 0 disables the rule.
  uint64_t SeqBaselineNs = 0;
  double TimeoutFactor = 10.0;

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

  //===--------------------------------------------------------------------===
  // Degradation-ladder supervision budgets (RecoveringLoopRunner)
  //===--------------------------------------------------------------------===

  /// Master switch for the ladder. Off: any unrecoverable Crash/Timeout
  /// drops every uncommitted iteration straight to the full-tail
  /// sequential fallback (the pre-ladder behavior).
  bool EnableSalvage = true;

  /// Tier 1: how many solo speculative re-executions of the indicted chunk
  /// to attempt before bisecting it.
  unsigned SalvageAttempts = 2;

  /// Tier 2: maximum recursive halvings of a failing range. Ranges still
  /// failing at the depth limit (or at single-iteration width) are
  /// quarantined.
  unsigned BisectionDepthLimit = 16;

  /// Base wait before the second and later tier-1 attempts; attempt A
  /// sleeps (base << (A - 2)) plus a deterministic jitter in [0, base)
  /// seeded by (SalvageSeed, chunk, attempt) — replays of the same plan
  /// back off identically.
  uint64_t SalvageBackoffNs = 200'000; // 0.2ms

  /// Seed for the deterministic backoff jitter.
  uint64_t SalvageSeed = 0x53414c56; // "SALV"

  //===--------------------------------------------------------------------===
  // Steady-state transport (WorkerPool + CommitRing)
  //===--------------------------------------------------------------------===

  /// Commit transport for the fork engines. Ring runs chunks from the warm
  /// worker pool and ships commits through shared-memory rings; Pipe is
  /// the fork-per-chunk fallback. Defaults to the ALTER_TRANSPORT-derived
  /// process default at config construction.
  TransportKind Transport = globalTransportKind();

  /// Data capacity of each worker slot's commit ring (rounded up to a
  /// power of two). Messages larger than the ring still ship — the child
  /// publishes in pieces under backpressure — this only sizes the fast
  /// path.
  size_t RingBytesPerSlot = 1 << 20;

  /// Retire and respawn the warm template after this many commits have
  /// been streamed to it (0 = never refresh). A refresh re-snapshots the
  /// template from the parent wholesale, bounding drift if incremental
  /// commit replay ever diverges; it waits for a moment with no warm child
  /// in flight, so the old template can still reap its children.
  unsigned TemplateRefreshCommits = 0;

  /// Fork-free steady state (pipeline engine only): after a slot's chunk
  /// commits, dispatch the next chunk to the SAME resident child over the
  /// slot's work pipe instead of re-forking. Until the run fails a
  /// validation the child keeps its snapshot plus its own committed
  /// writes, so validating its reads against every commit since that
  /// snapshot (the slot keeps its SnapshotSeq) stays sound; it merely
  /// aborts more often as the snapshot ages. This caps consecutive reuses
  /// per child in such runs, so the snapshot lag — and the conflict-epoch
  /// history the detector must retain — stays bounded. After a failed
  /// validation each redispatch catches the child up to committed state
  /// (WorkerPool), its snapshot is fresh, and the cap no longer applies.
  /// 0 disables reuse (every chunk re-forks from the warm template). The
  /// round-based ForkJoin engine never reuses: its round-local validation
  /// cannot see commits older than the round.
  unsigned MaxChildReuse = 64;

  /// Kernel-enforced caps applied inside each forked chunk via setrlimit:
  /// CPU seconds (RLIMIT_CPU — a busy-spinning child is killed by SIGXCPU
  /// without waiting for the parent deadline) and address space bytes
  /// (RLIMIT_AS — a child with runaway allocation fails its allocations
  /// instead of triggering the host OOM killer). Zero disables a cap.
  uint64_t ChildCpuSeconds = 0;
  uint64_t ChildAddressSpaceBytes = 0;

  /// Cost model for the simulated parallel clock (Lockstep engine).
  const CostModel *Costs = nullptr;

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
  /// RunResult::Metrics, and the timeline sampler below runs. When off,
  /// that section is empty.
  bool Metrics = globalMetricsEnabled();

  /// Minimum trace-clock ns between timeline samples. Sampling piggybacks
  /// on existing dispatch points (poll wakeups, round barriers) — no
  /// threads — so this is a floor, not a period. Deterministic under the
  /// seeded trace clock.
  uint64_t MetricsSampleIntervalNs = 1'000'000;

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

/// The fork-based process engines selectable by the recovery driver and the
/// workload harness.
enum class ParallelEngine {
  ForkJoin, ///< round-barrier engine (ForkJoinExecutor)
  Pipeline, ///< continuous-feed engine (PipelineExecutor)
};

/// Constructs a fresh instance of the chosen fork engine. The degradation
/// ladder uses this to spin up solo executors from the committed snapshot;
/// defined in LoopRunner.cpp.
std::unique_ptr<Executor> makeParallelEngine(ParallelEngine Engine,
                                             const ExecutorConfig &Config);

} // namespace alter

#endif // ALTER_RUNTIME_EXECUTOR_H
