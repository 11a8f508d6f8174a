//===- runtime/LoopRunner.h - Driving annotated loops -----------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LoopRunner is the seam between a workload and an execution engine. A
/// workload writes its algorithm once — outer convergence loop in plain
/// C++, annotated inner loop submitted through runInner() — and the same
/// code runs sequentially (reference), under the dependence probe, or under
/// any ALTER configuration, exactly as the paper's compiled binary is
/// "parameterized by some additional inputs that indicate the semantics to
/// be enforced" (§4).
///
/// The ExecutorLoopRunner also owns the outer-execution deadline: the
/// paper's timeout rule ("more than 10 times the sequential execution
/// time", §5) applies to the whole algorithm, which matters when a broken
/// reduction slows *convergence* rather than any single inner loop.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_LOOPRUNNER_H
#define ALTER_RUNTIME_LOOPRUNNER_H

#include "runtime/Executor.h"
#include "runtime/SequentialExecutor.h"

namespace alter {

struct RecoveredInvocation;

/// Abstract driver for one annotated loop inside a (possibly iterated)
/// algorithm.
class LoopRunner {
public:
  virtual ~LoopRunner();

  /// Executes one invocation of the annotated inner loop. Returns false
  /// when execution failed (crash / timeout) and the workload should stop.
  virtual bool runInner(const LoopSpec &Spec) = 0;

  /// End-of-algorithm step: reaps what the engine kept alive between
  /// invocations and folds its CPU time into result(). The Workload::run*
  /// helpers call it before returning result(); destroying the runner
  /// reaps the same processes without the accounting.
  virtual void release() {}

  /// Accumulated outcome across all runInner() calls.
  const RunResult &result() const { return Accumulated; }

protected:
  /// Folds one inner run into the accumulated result. Returns false when
  /// the run failed.
  bool fold(RunResult R);

  /// Merges one engine run's stats, trace, metrics registry and timeline
  /// into the accumulated result.
  void absorb(const RunResult &R);

  RunResult Accumulated;
};

/// Reference driver: plain sequential execution.
class SequentialLoopRunner : public LoopRunner {
public:
  explicit SequentialLoopRunner(AlterAllocator *Allocator = nullptr)
      : Exec(Allocator) {}

  bool runInner(const LoopSpec &Spec) override;

private:
  SequentialExecutor Exec;
};

/// Dependence-probing driver (Table 3's Dep column).
class ProbeLoopRunner : public LoopRunner {
public:
  explicit ProbeLoopRunner(AlterAllocator *Allocator = nullptr)
      : Exec(Allocator) {}

  bool runInner(const LoopSpec &Spec) override;

  /// Dependences observed across all invocations.
  const DependenceReport &report() const { return Exec.report(); }

private:
  DependenceProbeExecutor Exec;
};

/// Driver running the inner loop under an ALTER engine (lock-step or
/// fork-join), enforcing the outer 10x-sequential deadline.
class ExecutorLoopRunner : public LoopRunner {
public:
  /// \p SeqBaselineNs is the measured sequential time of the whole
  /// algorithm; 0 disables the deadline.
  explicit ExecutorLoopRunner(Executor &Exec, uint64_t SeqBaselineNs = 0)
      : Exec(Exec), SeqBaselineNs(SeqBaselineNs) {}

  bool runInner(const LoopSpec &Spec) override;

  void release() override;

private:
  Executor &Exec;
  uint64_t SeqBaselineNs;
};

/// Driver that guarantees completion through a graceful-degradation
/// ladder. The inner loop runs under the chosen ParallelEngine (threaded
/// rounds, or one of the fork engines) or the stage pipeline; the ladder's
/// sub-runs always fork (Pipeline for a Threaded primary). When
/// speculation fails unrecoverably — a contained Crash after the engine's
/// own per-chunk retries, or a mid-run deadline Timeout — the runner does
/// NOT immediately abandon parallelism for the whole uncommitted tail.
///
/// One loop finishes a set of uncommitted chunks, after an engine failure
/// and after a journal restart alike. A failed run indicts a chunk
/// (RunResult::FailedChunk); each round of the loop then
///
///  - re-runs the uncommitted chunks OLDER than the indicted one in
///    parallel first (a failure among them moves the indictment there),
///  - walks the indicted chunk down the ladder, paying for exactly as much
///    sequential execution as the fault demands:
///     - Tier 1 (salvage): the chunk alone, speculatively, on a fresh solo
///       engine forked from the committed snapshot — up to twice, with a
///       deterministic backoff before the second attempt. A transient
///       fault heals here.
///     - Tier 2 (bisection): a chunk that keeps failing solo is split
///       recursively; healthy halves commit speculatively, only the
///       failing fragment keeps shrinking (at most 16 halvings deep).
///     - Tier 3 (quarantine): fragments that fail at single-iteration
///       width (or at the depth limit) are executed sequentially against
///       committed memory. Stats.QuarantinedIterations is bounded by the
///       poisoned chunk's size — never by the tail.
///  - and re-runs the rest in parallel; a new indictment starts the next
///    round. A restarted invocation starts here, with nothing indicted.
///
/// The floor — sequential re-execution of every uncommitted chunk
/// (Stats.RecoveredIterations) — is reserved for a failure with no culprit
/// (e.g. Timeout), the round cap, and a spent real-time budget.
///
/// A shutdown request is a command to stop, not a fault to recover from:
/// the loop stops at the first one it sees — no further solo attempt,
/// bisection, quarantine or floor, no iteration after the request — and
/// the runner returns Interrupted with the invocation left open in the
/// journal, so a restart resumes it.
///
/// Correctness of the splice: under InOrder policies the committed chunks
/// form a program-order prefix, so completing the remainder in ascending
/// order yields the exact sequential execution — which is why older
/// uncommitted chunks run before the indicted one is resolved. Under
/// OutOfOrder/StaleReads the committed chunks form an arbitrary validated
/// subset, and any completion order of the remainder is one of the
/// serializations those annotations already declare acceptable.
///
/// Once the outer 10x deadline trips, later invocations stop speculating
/// and run sequentially outright — completion guaranteed, time bounded.
///
/// With ExecutorConfig::Journal set the runner is also the restart-recovery
/// driver: fresh invocations are bracketed by LoopBegin/LoopEnd frames (the
/// engines journal their commits, the runner journals the ranges its
/// sub-runs and sequential tiers complete, in original coordinates), and an
/// invocation the journal already records is replayed by re-execution and
/// resumed at the first uncommitted iteration (see CommitJournal.h).
class RecoveringLoopRunner : public LoopRunner {
public:
  /// \p Config carries the engine configuration and the outer deadline
  /// (SeqBaselineNs).
  RecoveringLoopRunner(ParallelEngine Engine, ExecutorConfig Config);

  bool runInner(const LoopSpec &Spec) override;

  void release() override;

private:
  /// Original iterations [First, Last) of the loop's chunk Chunk: what the
  /// sub-runs, the in-place runner and the journal handle.
  struct IterRange {
    int64_t Chunk, First, Last;
  };

  /// What one in-place run did.
  struct InPlaceRun {
    uint64_t TraceT0 = 0; ///< trace clock at the start (events level only)
    uint64_t Ns = 0;      ///< real time it took
    uint64_t Iters = 0;   ///< iterations it executed
    bool Stopped = false; ///< a shutdown request cut it short
  };

  /// True once accumulated real time exceeds DeadlineFactor x
  /// SeqBaselineNs: salvage must stop paying for speculation retries.
  bool budgetExpired() const;

  /// Schedule planner (SchedulePolicy::Auto): probes a short prefix of the
  /// stage-decomposed body — each probe chunk runs First then Second
  /// transactionally in the parent and is rolled back, so the measurement
  /// commits nothing — then prices both schedules through the CostModel.
  /// Returns true when the stage pipeline is predicted faster. Records a
  /// SchedulePick event (Arg0/Arg1 = modeled chunked/staged ns).
  bool planPicksStaged(const LoopSpec &Spec);

  /// Folds a whole-loop run of the chunked or staged engine into the
  /// result and finishes the chunks it left uncommitted. Returns false
  /// when a shutdown request stopped the invocation.
  bool finishRun(const LoopSpec &Spec, RunResult R);

  /// finishChunks' indictment when no run has failed yet.
  static constexpr int64_t NoFailure = -2;

  /// The one chunk-finishing loop: completes \p Remaining (original chunk
  /// indices at factor \p Cf, ascending). \p Indicted is the chunk a
  /// failed run blamed (-1: it blamed none), or NoFailure, in which case
  /// the chunks first run in parallel. Returns false when a shutdown
  /// request stopped it.
  bool finishChunks(const LoopSpec &Spec, std::vector<int64_t> Remaining,
                    int64_t Cf, int64_t Indicted);

  /// Tiers 1-3 for one indicted chunk: commits it speculatively or
  /// quarantines its poisoned iterations. Returns false when a shutdown
  /// request stopped it first.
  bool resolveChunk(const LoopSpec &Spec, int64_t Chunk, int64_t Cf);

  /// Tier 2: recursively split [First, Last), committing healthy halves
  /// solo, and tier 3: quarantine fragments that keep failing in place.
  /// Returns false when a shutdown request stopped it.
  bool bisect(const LoopSpec &Spec, int64_t Chunk, int64_t First,
              int64_t Last, unsigned Depth);

  /// Deterministic backoff before tier-1 attempt \p Attempt (none before
  /// the first).
  void backoff(int64_t Chunk, unsigned Attempt);

  /// Every ladder sub-run goes through here: runs \p Ranges as the chunks
  /// of a fresh engine (one chunk each, in order) with fault points mapped
  /// back to original coordinates, folds the run into the result and
  /// journals the ranges it committed. \p Solo runs one worker on the
  /// pipe transport with no engine retries — the ladder supervises them.
  /// CommitOrder and FailedChunk of the returned result are positions into
  /// \p Ranges.
  RunResult runSubRun(const LoopSpec &Spec,
                      const std::vector<IterRange> &Ranges, bool Solo);

  /// The in-place range runner: executes \p Ranges in order, sequentially
  /// against committed memory, charges the time and bytes to the result
  /// and, when \p Journal, journals each range it ran. Stops between
  /// iterations at a shutdown request.
  InPlaceRun runInPlace(const LoopSpec &Spec,
                        const std::vector<IterRange> &Ranges, bool Journal);

  /// The floor: executes every chunk of \p Chunks in place. Returns false
  /// when a shutdown request cut it short.
  bool runFloor(const LoopSpec &Spec, const std::vector<int64_t> &Chunks,
                int64_t Cf);

  /// Records a parent-side ladder event at Config.Trace level: an instant,
  /// or with \p Run the span of that in-place run.
  void traceLadderEvent(TraceEventKind Kind, int64_t Chunk, uint64_t Arg0,
                        uint64_t Arg1, const InPlaceRun *Run = nullptr);

  /// Restart recovery for one journaled invocation: replays \p Rec's
  /// committed frames by re-execution (charging ReplayedChunks/RecoveryNs),
  /// then finishes partial-chunk gaps in place and the untouched chunks
  /// through finishChunks. Returns false only when a shutdown request
  /// stopped it.
  bool resumeRecovered(const LoopSpec &Spec, const RecoveredInvocation &Rec);

  /// Closes the invocation: LoopEnd in the journal, I/O accounting drained.
  void closeInvocation();

  /// Stops an invocation a shutdown request interrupted: marks the result
  /// Interrupted and leaves the invocation open in the journal so a restart
  /// resumes it, but makes the committed prefix durable now — the
  /// supervisor's escalation may not leave another chance. Returns false.
  bool stopInvocation();

  /// Moves the journal's I/O accounting for this invocation into
  /// Accumulated (no-op without a journal).
  void drainJournalStats();

  ParallelEngine Engine;
  ExecutorConfig Config;
  /// The engine instance used for whole-loop invocations (it holds the
  /// last invocation's retired template until release()); ladder sub-runs
  /// construct fresh engines so their width/retry settings stay private.
  std::unique_ptr<Executor> Primary;
  /// Set once the outer deadline trips; subsequent invocations bypass the
  /// speculative engine entirely.
  bool SequentialMode = false;
};

} // namespace alter

#endif // ALTER_RUNTIME_LOOPRUNNER_H
