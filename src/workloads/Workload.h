//===- workloads/Workload.h - Benchmark workload interface ------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface for the paper's twelve performance-intensive loops
/// (Table 2): eight Berkeley-dwarf algorithms and four STAMP benchmarks.
/// Each workload is written once against LoopRunner/TxnContext and then
/// runs unchanged as the sequential reference, under the dependence probe,
/// or under any ALTER runtime configuration.
///
/// Workloads expose everything the inference engine (§5) and the benchmark
/// harness need: deterministic input setup at several sizes, a
/// program-specific output validation criterion, reduction candidates, the
/// annotation the paper settled on, and the Table 4 chunk factor.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_WORKLOADS_WORKLOAD_H
#define ALTER_WORKLOADS_WORKLOAD_H

#include "memory/AlterAllocator.h"
#include "runtime/Annotation.h"
#include "runtime/LoopRunner.h"

#include <memory>
#include <string>
#include <vector>

namespace alter {

class CommitJournal;

/// Abstract benchmark workload.
class Workload {
public:
  virtual ~Workload();

  /// Short identifier ("kmeans", "gsdense", ...).
  virtual std::string name() const = 0;

  /// One-line description (Table 2's DESCRIPTION column).
  virtual std::string description() const = 0;

  /// The Berkeley dwarf or suite the workload represents.
  virtual std::string suite() const = 0;

  /// Number of available input configurations. Index 0 is the inference
  /// (test) input; higher indices are benchmarking inputs.
  virtual size_t numInputs() const = 0;

  /// Human-readable name of input \p Index ("16k-512", ...).
  virtual std::string inputName(size_t Index) const = 0;

  /// Builds the input deterministically and resets all algorithm state.
  /// May be called repeatedly; each call must produce identical state.
  virtual void setUp(size_t Index) = 0;

  /// Runs the complete algorithm, submitting every execution of the
  /// annotated loop through \p Runner. Returns normally even on runner
  /// failure (the accumulated result carries the status).
  virtual void run(LoopRunner &Runner) = 0;

  /// A flat numeric signature of the algorithm's output, used for
  /// program-specific validation.
  virtual std::vector<double> outputSignature() const = 0;

  /// Program-specific correctness criterion: does this run's output match
  /// the reference signature \p Reference? Implementations choose their
  /// own tolerance (the paper "often made approximate comparisons between
  /// floating-point values" and used in-code assertions for four
  /// benchmarks).
  virtual bool validate(const std::vector<double> &Reference) const = 0;

  /// Names of the scalar variables eligible for reduction annotations.
  virtual std::vector<std::string> reductionCandidates() const {
    return {};
  }

  /// The annotation the paper's inference settled on; nullopt for loops
  /// the paper could not parallelize (Labyrinth).
  virtual std::optional<Annotation> paperAnnotation() const = 0;

  /// The tuned per-loop chunk factor (Table 4).
  virtual int defaultChunkFactor() const = 0;

  /// Allocator backing in-loop allocations; null when the loop never
  /// allocates.
  virtual AlterAllocator *allocator() { return nullptr; }

  //===--------------------------------------------------------------------===
  // Convenience drivers
  //===--------------------------------------------------------------------===

  /// Runs the algorithm sequentially and returns the accumulated result
  /// (RealTimeNs of the result is the time spent inside the annotated
  /// loop; \p TotalNs, if non-null, receives the whole algorithm's time —
  /// their ratio is Table 2's loop weight).
  RunResult runSequential(uint64_t *TotalNs = nullptr);

  /// Runs the algorithm under the dependence probe and reports loop-carried
  /// dependences (Table 3's Dep column).
  DependenceReport probeDependences();

  /// Runs the algorithm under the lock-step engine with \p Params on
  /// \p NumWorkers workers. \p SeqBaselineNs enables the 10x timeout rule;
  /// \p Limits models per-transaction resource caps.
  RunResult runLockstep(const RuntimeParams &Params, unsigned NumWorkers,
                        uint64_t SeqBaselineNs = 0,
                        TxnLimits Limits = TxnLimits());

  /// Same, under the fork-join process engine.
  RunResult runForkJoin(const RuntimeParams &Params, unsigned NumWorkers,
                        uint64_t SeqBaselineNs = 0,
                        TxnLimits Limits = TxnLimits());

  /// Same, under the pipelined (continuous chunk feed) process engine.
  RunResult runPipeline(const RuntimeParams &Params, unsigned NumWorkers,
                        uint64_t SeqBaselineNs = 0,
                        TxnLimits Limits = TxnLimits());

  /// Runs under \p Engine behind the sequential-recovery driver
  /// (RecoveringLoopRunner): speculative failures fall back to sequential
  /// re-execution of the uncommitted iterations, so the returned result is
  /// always Success — Stats.Recovered records whether the fallback ran.
  /// \p Journal, when non-null, makes committed chunks durable and enables
  /// restart recovery; when null, ALTER_JOURNAL (see maybeEnvJournal) can
  /// still attach a process-global journal.
  RunResult runRecovering(ParallelEngine Engine, const RuntimeParams &Params,
                          unsigned NumWorkers, uint64_t SeqBaselineNs = 0,
                          TxnLimits Limits = TxnLimits(),
                          CommitJournal *Journal = nullptr);

  /// Runs behind the schedule-aware recovery driver with an explicit
  /// SchedulePolicy: Auto lets the CostModel planner pick chunked vs staged
  /// per loop (recorded in RunResult::ScheduleUsed), the other values force
  /// a schedule. Chunked invocations run on threads (ParallelEngine::
  /// Threaded) when \p Params realize the paper annotation the §5
  /// inference certifies, at any chunk factor, and no FaultPlan is armed
  /// (faults act in forked children); otherwise they run on the pipelined
  /// fork engine. A journal does not force a fork: the threaded engine
  /// journals its commits too. Staged picks and the ladder's sub-runs
  /// always fork. \p Journal as in runRecovering.
  RunResult runScheduled(SchedulePolicy Policy, const RuntimeParams &Params,
                         unsigned NumWorkers, uint64_t SeqBaselineNs = 0,
                         TxnLimits Limits = TxnLimits(),
                         CommitJournal *Journal = nullptr);

  /// Resolves \p A against this workload's reduction-candidate names and
  /// applies the paper's chunk-factor default when the annotation leaves
  /// it unset.
  RuntimeParams resolveAnnotation(const Annotation &A) const;
};

/// Paper-reported Table 3 outcome strings for one benchmark, used by the
/// reproduction harness to display measured-vs-paper.
struct PaperTable3Row {
  const char *Name;
  const char *Dep;        ///< "Yes" / "No"
  const char *Tls;        ///< "success" / "timeout" / "h.c." / "crash"
  const char *OutOfOrder; ///< likewise
  const char *StaleReads; ///< likewise
  const char *Reduction;  ///< "N/A", "+", "max/+"
};

/// The twelve rows of the paper's Table 3.
const std::vector<PaperTable3Row> &paperTable3();

/// Instantiates one workload by name; aborts on an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

/// Names of all twelve workloads in the paper's Table 2/3 order.
const std::vector<std::string> &allWorkloadNames();

} // namespace alter

#endif // ALTER_WORKLOADS_WORKLOAD_H
