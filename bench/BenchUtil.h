//===- bench/BenchUtil.h - Shared benchmark-harness helpers -----*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/per-figure harness binaries. Every
/// binary regenerates one artifact of the paper's evaluation (§7) and
/// prints rows in a uniform format, with the paper's reported values
/// alongside where available.
///
/// Speedups follow the paper's definition: time of the sequential loop
/// nest (without ALTER) divided by the (modeled) parallel time of the same
/// loop nest. See DESIGN.md §2 and EXPERIMENTS.md for the cost-model
/// substitution that stands in for the paper's 8-core Xeon.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_BENCH_BENCHUTIL_H
#define ALTER_BENCH_BENCHUTIL_H

#include "runtime/RuntimeParams.h"
#include "support/Table.h"
#include "workloads/Workload.h"

#include <string>
#include <vector>

namespace alter {
namespace bench {

/// One point of a speedup-vs-processors series.
struct SweepPoint {
  unsigned NumWorkers = 0;
  double Speedup = 0.0;
  double RetryRate = 0.0;
  uint64_t SimTimeNs = 0;
  RunStatus Status = RunStatus::Success;
  /// The chunk factor the run actually used (explicit parameter or the
  /// process-wide default), carried into the --json report.
  int64_t ChunkFactorUsed = 0;
  /// Full per-run statistics, carried into the --json report (transaction
  /// counts, wire bytes, worker occupancy).
  RunStats Stats;
  /// Commit transport the run used ("pipe" / "ring"), carried into the
  /// --json report. "n/a" for thread-based engines with no fork transport.
  std::string Transport = "n/a";
  /// Schedule the run executed under ("chunked" / "staged" / "sequential"),
  /// carried into the --json report so the --stage CI gate can assert the
  /// schedule auto gave. "n/a" for engine-direct runs.
  std::string Schedule = "n/a";
};

/// A named speedup series (one line of a paper figure).
struct SweepSeries {
  std::string Label;
  std::vector<SweepPoint> Points;
};

/// The processor counts of the paper's figures.
const std::vector<unsigned> &paperProcessorCounts();

/// Measures the sequential loop-nest time of \p Name on \p InputIndex
/// (best of \p Repeats runs, to tame timer noise).
uint64_t measureSequentialNs(const std::string &Name, size_t InputIndex,
                             int Repeats = 3);

/// Runs \p Name under \p Params for each processor count and returns the
/// speedup series. \p SeqNs is the baseline from measureSequentialNs.
SweepSeries runSweep(const std::string &Name, size_t InputIndex,
                     const RuntimeParams &Params, const std::string &Label,
                     uint64_t SeqNs,
                     const std::vector<unsigned> &Workers =
                         paperProcessorCounts());

/// Like runSweep, but through the schedule-aware recovery driver under
/// SchedulePolicy::Auto — the "staged" column of figures whose workload
/// carries a stage split. Processor counts below 2 cannot host a replica
/// beside the sequential lane; their points stay empty and render as "-".
SweepSeries runScheduledSweep(const std::string &Name, size_t InputIndex,
                              const RuntimeParams &Params,
                              const std::string &Label, uint64_t SeqNs,
                              const std::vector<unsigned> &Workers =
                                  paperProcessorCounts());

/// Prints a figure: one row per processor count, one column per series.
/// \p PaperNote describes the paper's reported shape for eyeballing.
void printFigure(const std::string &Title,
                 const std::vector<SweepSeries> &Series,
                 const std::string &PaperNote);

/// Prints the standard harness banner for a table/figure binary.
void printHeader(const std::string &Id, const std::string &What);

/// Formats a speedup value ("2.04x").
std::string speedupCell(const SweepPoint &Point);

/// If the ALTER_BENCH_CSV_DIR environment variable names a directory,
/// writes \p Table there as <Id>.csv (creating nothing on failure is not
/// an option: aborts on I/O errors). No-op when the variable is unset.
void maybeWriteCsv(const std::string &Id, const TextTable &Table);

//===----------------------------------------------------------------------===
// Machine-readable results (--json)
//===----------------------------------------------------------------------===

/// Parses the shared harness flags out of \p argv. Currently understood:
/// `--json <path>` (or `--json=<path>`) arms the JSON report written by
/// finalizeBenchJson(); `--trace <path>` (or `--trace=<path>`) raises the
/// process-wide trace level to Events and arms the Chrome-trace report
/// written by maybeWriteTraceReport(); `--profile` arms the post-run
/// critical-path profile table; `--metrics-json <path>` (or
/// `--metrics-json=<path>`) arms the machine-readable metrics report.
/// --profile and --metrics-json both imply event tracing and the metrics
/// registries, regardless of ALTER_TRACE / ALTER_METRICS. Unrecognized
/// arguments are left for the driver. Call once at the top of main().
void initBenchArgs(int argc, char **argv);

/// True when --trace was given: the driver should keep the RunResult of a
/// representative run and hand it to maybeWriteTraceReport().
bool traceRequested();

/// True when --profile was given: the driver should keep the RunResult of a
/// representative run and hand it to maybeWriteMetricsReport().
bool profileRequested();

/// True when --metrics-json was given (same representative-run contract as
/// profileRequested()).
bool metricsRequested();

/// Writes \p Result's event timeline to the --trace path as Chrome
/// trace-event JSON (Perfetto-loadable) and prints the text summary with
/// conflict attribution to stdout. No-op when --trace was not given.
void maybeWriteTraceReport(const RunResult &Result);

/// Prints the critical-path profile table (--profile) and/or writes the
/// metrics JSON report (--metrics-json) for a representative run. No-op
/// when neither flag was given.
void maybeWriteMetricsReport(const RunResult &Result);

/// Appends one measured point to the JSON report (no-op unless --json was
/// given). printFigure() calls this for every point it prints; drivers with
/// bespoke output call it directly.
void jsonAddPoint(const std::string &Figure, const std::string &Series,
                  const SweepPoint &Point);

/// Writes the accumulated report to the --json path as a flat record array
/// (figure, series, procs, status, speedup, txn stats, wire bytes,
/// occupancy, fault/recovery counters). No-op when --json was not given.
/// Call once at the bottom of main().
void finalizeBenchJson();

} // namespace bench
} // namespace alter

#endif // ALTER_BENCH_BENCHUTIL_H
