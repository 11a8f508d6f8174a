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
  ExecutorLoopRunner(Executor &Exec, uint64_t SeqBaselineNs = 0,
                     double TimeoutFactor = 10.0)
      : Exec(Exec), SeqBaselineNs(SeqBaselineNs),
        TimeoutFactor(TimeoutFactor) {}

  bool runInner(const LoopSpec &Spec) override;

  void release() override;

private:
  Executor &Exec;
  uint64_t SeqBaselineNs;
  double TimeoutFactor;
};

/// Driver that guarantees completion through a graceful-degradation
/// ladder. The inner loop runs under one of the fork engines; when
/// speculation fails unrecoverably — a contained Crash after the engine's
/// own per-chunk retries, or a mid-run deadline Timeout — the runner does
/// NOT immediately abandon parallelism for the whole uncommitted tail.
/// Instead it walks down a ladder, paying for exactly as much sequential
/// execution as the fault demands:
///
///  - Tier 1 (salvage): the chunk the engine indicted (RunResult::
///    FailedChunk) is re-executed alone, speculatively, on a fresh solo
///    executor forked from the committed snapshot — up to
///    ExecutorConfig::SalvageAttempts times with deterministic exponential
///    backoff. A transient fault heals here and the healthy tail re-runs
///    in parallel.
///  - Tier 2 (bisection): a chunk that keeps failing solo is split
///    recursively; healthy halves commit speculatively, only the failing
///    fragment keeps shrinking (bounded by BisectionDepthLimit).
///  - Tier 3 (quarantine): fragments that fail at single-iteration width
///    (or at the depth limit) are executed sequentially against committed
///    memory. Stats.QuarantinedIterations is bounded by the poisoned
///    chunk's size — never by the tail.
///
/// Only when the ladder cannot run — salvage disabled, no indicted chunk
/// (e.g. Timeout), or the real-time budget already spent — does the runner
/// fall back to sequential re-execution of every uncommitted chunk
/// (Stats.RecoveredIterations), the pre-ladder behavior.
///
/// Correctness of the splice: under InOrder policies the committed chunks
/// form a program-order prefix, so completing the remainder in ascending
/// order yields the exact sequential execution (the ladder re-runs
/// uncommitted chunks OLDER than the indicted one before resolving it).
/// Under OutOfOrder/StaleReads the committed chunks form an arbitrary
/// validated subset, and any completion order of the remainder is one of
/// the serializations those annotations already declare acceptable.
///
/// Once the outer 10x deadline trips, later invocations stop speculating
/// and run sequentially outright — completion guaranteed, time bounded.
///
/// With ExecutorConfig::Journal set the runner is also the restart-recovery
/// driver: fresh invocations are bracketed by LoopBegin/LoopEnd frames (the
/// engines journal their commits, the ladder tiers journal theirs here, in
/// original coordinates), and an invocation the journal already records is
/// replayed by re-execution and resumed at the first uncommitted iteration
/// (see CommitJournal.h for why replay re-executes instead of applying the
/// logged bytes).
class RecoveringLoopRunner : public LoopRunner {
public:
  /// \p Config carries the engine configuration, the outer deadline
  /// (SeqBaselineNs / TimeoutFactor), and the ladder's supervision
  /// budgets. \p Allocator overrides Config.Allocator when non-null.
  RecoveringLoopRunner(ParallelEngine Engine, ExecutorConfig Config,
                       AlterAllocator *Allocator = nullptr);

  bool runInner(const LoopSpec &Spec) override;

  void release() override;

private:
  /// True once accumulated real time exceeds TimeoutFactor x
  /// SeqBaselineNs: salvage must stop paying for speculation retries.
  bool budgetExpired() const;

  /// Schedule planner (SchedulePolicy::Auto): probes a short prefix of the
  /// stage-decomposed body — each probe chunk runs First then Second
  /// transactionally in the parent and is rolled back, so the measurement
  /// commits nothing — then prices both schedules through the CostModel.
  /// Returns true when the stage pipeline is predicted faster. Records a
  /// SchedulePick event (Arg0/Arg1 = modeled chunked/staged ns).
  bool planPicksStaged(const LoopSpec &Spec);

  /// Runs one invocation under the stage pipeline, falling into the
  /// degradation ladder on failure exactly like the chunked path. Returns
  /// false when the run was Interrupted by a shutdown request — the ladder
  /// never attempts to finish an interrupted loop.
  bool runStagedInner(const LoopSpec &Spec);

  /// Walks the ladder over every chunk \p Failed did not commit.
  void runLadder(const LoopSpec &Spec, const RunResult &Failed);

  /// Runs \p Sub to completion on a fresh engine built from \p SubConfig
  /// and releases it, so the result carries the engine's whole CPU time.
  RunResult runFreshEngine(const ExecutorConfig &SubConfig,
                           const LoopSpec &Sub);

  /// Re-runs \p Chunks (original indices, ascending) in parallel under a
  /// fresh engine via a re-indexed sub-spec. Merges stats/trace and
  /// returns the sub-run's result (CommitOrder/FailedChunk hold LOCAL
  /// chunk indices, i.e. positions into \p Chunks).
  RunResult runChunksParallel(const LoopSpec &Spec,
                              const std::vector<int64_t> &Chunks, int64_t Cf);

  /// Tiers 1-3 for one indicted chunk; always resolves it (commits it
  /// speculatively or quarantines its poisoned iterations).
  void resolveChunk(const LoopSpec &Spec, int64_t Chunk, int64_t Cf);

  /// Tier 2: recursively split [First, Last), committing healthy halves
  /// solo and quarantining fragments that keep failing.
  void bisect(const LoopSpec &Spec, int64_t Chunk, int64_t First,
              int64_t Last, unsigned Depth);

  /// Runs [First, Last) as one speculative chunk on a fresh single-worker
  /// engine (retry limit 0). Returns true when it committed.
  bool runRangeSolo(const LoopSpec &Spec, int64_t Chunk, int64_t First,
                    int64_t Last);

  /// Deterministic exponential backoff before tier-1 attempt \p Attempt.
  void backoff(int64_t Chunk, unsigned Attempt);

  /// Tier 3: executes [First, Last) sequentially against committed memory.
  void quarantineRange(const LoopSpec &Spec, int64_t Chunk, int64_t First,
                       int64_t Last);

  /// Ladder floor: sequentially executes every chunk in \p Chunks.
  void fullTailSequential(const LoopSpec &Spec,
                          const std::vector<int64_t> &Chunks, int64_t Cf);

  /// Records an instant parent-side ladder event at Config.Trace level.
  void traceLadderEvent(TraceEventKind Kind, int64_t Chunk, uint64_t Arg0,
                        uint64_t Arg1);

  /// Restart recovery for one journaled invocation: replays \p Rec's
  /// committed frames by re-execution (charging ReplayedChunks/RecoveryNs),
  /// then finishes partial-chunk gaps sequentially and the untouched
  /// chunks in parallel. Returns false only when the resumed work was
  /// Interrupted before completing.
  bool resumeRecovered(const LoopSpec &Spec, const RecoveredInvocation &Rec);

  /// Finishes \p Remaining (original chunk indices, ascending) with the
  /// parallel-then-ladder discipline runLadder applies after an engine
  /// failure. A shutdown request surfaces as Accumulated.Status ==
  /// Interrupted; everything else completes.
  void completeRemaining(const LoopSpec &Spec, std::vector<int64_t> Remaining,
                         int64_t Cf);

  /// Moves the journal's I/O accounting for this invocation into
  /// Accumulated (no-op without a journal).
  void drainJournalStats();

  ParallelEngine Engine;
  ExecutorConfig Config;
  AlterAllocator *Allocator;
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
