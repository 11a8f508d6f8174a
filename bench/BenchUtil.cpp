//===- bench/BenchUtil.cpp ------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include "support/Error.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

using namespace alter;
using namespace alter::bench;

const std::vector<unsigned> &alter::bench::paperProcessorCounts() {
  static const std::vector<unsigned> Counts = {1, 2, 4, 8};
  return Counts;
}

uint64_t alter::bench::measureSequentialNs(const std::string &Name,
                                           size_t InputIndex, int Repeats) {
  uint64_t Best = ~uint64_t(0);
  for (int Rep = 0; Rep != Repeats; ++Rep) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    W->setUp(InputIndex);
    const RunResult R = W->runSequential();
    Best = std::min(Best, R.Stats.RealTimeNs);
  }
  return Best;
}

SweepSeries alter::bench::runSweep(const std::string &Name, size_t InputIndex,
                                   const RuntimeParams &Params,
                                   const std::string &Label, uint64_t SeqNs,
                                   const std::vector<unsigned> &Workers) {
  SweepSeries Series;
  Series.Label = Label;
  for (unsigned P : Workers) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    W->setUp(InputIndex);
    const RunResult R = W->runLockstep(Params, P);
    SweepPoint Point;
    Point.NumWorkers = P;
    Point.Schedule = scheduleKindName(R.ScheduleUsed);
    Point.Status = R.Status;
    Point.SimTimeNs = R.Stats.SimTimeNs;
    Point.RetryRate = R.Stats.retryRate();
    Point.ChunkFactorUsed = R.ChunkFactorUsed;
    Point.Stats = R.Stats;
    Point.Speedup = R.Stats.SimTimeNs == 0
                        ? 0.0
                        : static_cast<double>(SeqNs) /
                              static_cast<double>(R.Stats.SimTimeNs);
    Series.Points.push_back(Point);
  }
  return Series;
}

SweepSeries alter::bench::runScheduledSweep(
    const std::string &Name, size_t InputIndex, const RuntimeParams &Params,
    const std::string &Label, uint64_t SeqNs,
    const std::vector<unsigned> &Workers) {
  SweepSeries Series;
  Series.Label = Label;
  for (unsigned P : Workers) {
    SweepPoint Point;
    Point.NumWorkers = P;
    if (P < 2) {
      // No replica beside the sequential lane: the point stays empty and
      // renders as "-".
      Series.Points.push_back(Point);
      continue;
    }
    std::unique_ptr<Workload> W = makeWorkload(Name);
    W->setUp(InputIndex);
    const RunResult R = W->runScheduled(SchedulePolicy::Auto, Params, P);
    Point.Schedule = scheduleKindName(R.ScheduleUsed);
    Point.Status = R.Status;
    Point.SimTimeNs = R.Stats.SimTimeNs;
    Point.RetryRate = R.Stats.retryRate();
    Point.ChunkFactorUsed = R.ChunkFactorUsed;
    Point.Stats = R.Stats;
    Point.Speedup = R.Stats.SimTimeNs == 0
                        ? 0.0
                        : static_cast<double>(SeqNs) /
                              static_cast<double>(R.Stats.SimTimeNs);
    Series.Points.push_back(Point);
  }
  return Series;
}

std::string alter::bench::speedupCell(const SweepPoint &Point) {
  if (Point.SimTimeNs == 0 && Point.Stats.NumTransactions == 0 &&
      Point.Speedup == 0.0)
    return "-"; // empty point (e.g. staged at one processor)
  if (Point.Status != RunStatus::Success)
    return runStatusName(Point.Status);
  return formatSpeedup(Point.Speedup);
}

void alter::bench::printFigure(const std::string &Title,
                               const std::vector<SweepSeries> &Series,
                               const std::string &PaperNote) {
  std::printf("\n%s\n", Title.c_str());
  std::vector<std::string> Header = {"procs"};
  for (const SweepSeries &S : Series)
    Header.push_back(S.Label);
  TextTable Table(Header);
  if (!Series.empty()) {
    for (size_t Row = 0; Row != Series[0].Points.size(); ++Row) {
      std::vector<std::string> Cells = {
          strprintf("%u", Series[0].Points[Row].NumWorkers)};
      for (const SweepSeries &S : Series)
        Cells.push_back(speedupCell(S.Points[Row]));
      Table.addRow(Cells);
    }
  }
  Table.printText();
  std::string Id;
  for (char C : Title)
    Id += (std::isalnum(static_cast<unsigned char>(C)) ? C : '_');
  maybeWriteCsv(Id, Table);
  for (const SweepSeries &S : Series)
    for (const SweepPoint &P : S.Points)
      jsonAddPoint(Title, S.Label, P);
  if (!PaperNote.empty())
    std::printf("paper: %s\n", PaperNote.c_str());
}

void alter::bench::maybeWriteCsv(const std::string &Id,
                                 const TextTable &Table) {
  const char *Dir = std::getenv("ALTER_BENCH_CSV_DIR");
  if (!Dir || !*Dir)
    return;
  const std::string Path = std::string(Dir) + "/" + Id + ".csv";
  Table.writeCsv(Path);
  std::printf("(csv written to %s)\n", Path.c_str());
}

namespace {

/// One --json record; flattened from (figure, series, point) at append time
/// so finalize only has to render.
struct JsonRecord {
  std::string Figure;
  std::string Series;
  SweepPoint Point;
};

std::string JsonPath;
std::vector<JsonRecord> JsonRecords;
std::string TracePath;
std::string MetricsJsonPath;
bool ProfileFlag = false;

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += strprintf("\\u%04x", C);
      continue;
    }
    Out += C;
  }
  return Out;
}

} // namespace

void alter::bench::initBenchArgs(int argc, char **argv) {
  for (int I = 1; I != argc; ++I) {
    const std::string Arg = argv[I];
    if (Arg == "--json") {
      if (I + 1 == argc)
        fatalError("--json requires a path argument");
      JsonPath = argv[++I];
    } else if (Arg.rfind("--json=", 0) == 0) {
      JsonPath = Arg.substr(7);
    } else if (Arg == "--trace") {
      if (I + 1 == argc)
        fatalError("--trace requires a path argument");
      TracePath = argv[++I];
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(8);
    } else if (Arg == "--profile") {
      ProfileFlag = true;
    } else if (Arg == "--metrics-json") {
      if (I + 1 == argc)
        fatalError("--metrics-json requires a path argument");
      MetricsJsonPath = argv[++I];
    } else if (Arg.rfind("--metrics-json=", 0) == 0) {
      MetricsJsonPath = Arg.substr(15);
    }
  }
  // The flags imply full event recording regardless of ALTER_TRACE, and the
  // profile/metrics reports additionally need the registries on: the
  // critical-path attribution reads both TraceEvents and the histograms.
  if (!TracePath.empty() || ProfileFlag || !MetricsJsonPath.empty())
    setGlobalTraceLevel(TraceLevel::Events);
  if (ProfileFlag || !MetricsJsonPath.empty())
    setGlobalMetricsEnabled(true);
}

bool alter::bench::traceRequested() { return !TracePath.empty(); }

bool alter::bench::profileRequested() { return ProfileFlag; }

bool alter::bench::metricsRequested() { return !MetricsJsonPath.empty(); }

void alter::bench::maybeWriteMetricsReport(const RunResult &Result) {
  if (ProfileFlag)
    std::printf("%s", Result.profileTable().c_str());
  if (MetricsJsonPath.empty())
    return;
  std::string Error;
  if (!Result.writeMetricsJson(MetricsJsonPath, &Error))
    fatalError("cannot write --metrics-json path " + MetricsJsonPath + ": " +
               Error);
  std::printf("(metrics json written to %s)\n", MetricsJsonPath.c_str());
}

void alter::bench::maybeWriteTraceReport(const RunResult &Result) {
  if (TracePath.empty())
    return;
  std::string Error;
  if (!Result.writeChromeTrace(TracePath, &Error))
    fatalError("cannot write --trace path " + TracePath + ": " + Error);
  std::printf("(chrome trace written to %s — load in Perfetto or "
              "chrome://tracing)\n%s",
              TracePath.c_str(), Result.traceSummary().c_str());
}

void alter::bench::jsonAddPoint(const std::string &Figure,
                                const std::string &Series,
                                const SweepPoint &Point) {
  if (JsonPath.empty())
    return;
  JsonRecords.push_back({Figure, Series, Point});
}

void alter::bench::finalizeBenchJson() {
  if (JsonPath.empty())
    return;
  std::FILE *F = std::fopen(JsonPath.c_str(), "w");
  if (!F)
    fatalError("cannot open --json path " + JsonPath);
  std::fprintf(F, "{\n  \"records\": [");
  for (size_t I = 0; I != JsonRecords.size(); ++I) {
    const JsonRecord &R = JsonRecords[I];
    const RunStats &S = R.Point.Stats;
    std::fprintf(
        F,
        "%s\n    {\"figure\": \"%s\", \"series\": \"%s\", \"procs\": %u, "
        "\"status\": \"%s\", \"speedup\": %.6g, \"retry_rate\": %.6g, "
        "\"sim_time_ns\": %llu, \"real_time_ns\": %llu, "
        "\"transactions\": %llu, \"committed\": %llu, \"retries\": %llu, "
        "\"occupancy\": %.6g, \"straggler_stall_ns\": %llu, "
        "\"wire_bytes\": %llu, \"wire_bytes_raw\": %llu, "
        "\"wire_compression\": %.6g, \"chunk_factor\": %lld, "
        "\"fork_failures\": %llu, "
        "\"transport\": \"%s\", \"schedule\": \"%s\", "
        "\"wire_bytes_copied\": %llu, "
        "\"warm_forks\": %llu, \"cold_forks\": %llu, "
        "\"child_reuses\": %llu, "
        "\"warm_fork_rate\": %.6g, \"template_refreshes\": %llu, "
        "\"pool_faults\": %llu, "
        "\"child_crashes\": %llu, \"wire_rejects\": %llu, "
        "\"recovered\": %s, \"recovered_iterations\": %llu, "
        "\"salvaged_chunks\": %llu, \"quarantined_iterations\": %llu, "
        "\"bisection_rounds\": %llu, "
        "\"cpu_user_ns\": %llu, \"cpu_sys_ns\": %llu, "
        "\"cpu_total_ns\": %llu, \"cpu_vs_wall\": %.6g, "
        "\"max_child_rss_bytes\": %llu, "
        "\"journal_bytes\": %llu, \"journal_fsyncs\": %llu, "
        "\"replayed_chunks\": %llu, \"recovery_ns\": %llu}",
        I == 0 ? "" : ",", jsonEscape(R.Figure).c_str(),
        jsonEscape(R.Series).c_str(), R.Point.NumWorkers,
        runStatusName(R.Point.Status), R.Point.Speedup, R.Point.RetryRate,
        static_cast<unsigned long long>(R.Point.SimTimeNs),
        static_cast<unsigned long long>(S.RealTimeNs),
        static_cast<unsigned long long>(S.NumTransactions),
        static_cast<unsigned long long>(S.NumCommitted),
        static_cast<unsigned long long>(S.NumRetries), S.occupancy(),
        static_cast<unsigned long long>(S.stragglerStallNs()),
        static_cast<unsigned long long>(S.WireBytes),
        static_cast<unsigned long long>(S.WireBytesRaw),
        S.wireCompressionRatio(),
        static_cast<long long>(R.Point.ChunkFactorUsed),
        static_cast<unsigned long long>(S.NumForkFailures),
        jsonEscape(R.Point.Transport).c_str(),
        jsonEscape(R.Point.Schedule).c_str(),
        static_cast<unsigned long long>(S.WireBytesCopied),
        static_cast<unsigned long long>(S.WarmForks),
        static_cast<unsigned long long>(S.ColdForks),
        static_cast<unsigned long long>(S.ChildReuses), S.warmForkRate(),
        static_cast<unsigned long long>(S.TemplateRefreshes),
        static_cast<unsigned long long>(S.PoolFaults),
        static_cast<unsigned long long>(S.NumChildCrashes),
        static_cast<unsigned long long>(S.NumWireRejects),
        S.Recovered ? "true" : "false",
        static_cast<unsigned long long>(S.RecoveredIterations),
        static_cast<unsigned long long>(S.SalvagedChunks),
        static_cast<unsigned long long>(S.QuarantinedIterations),
        static_cast<unsigned long long>(S.BisectionRounds),
        static_cast<unsigned long long>(S.ChildUserNs),
        static_cast<unsigned long long>(S.ChildSysNs),
        static_cast<unsigned long long>(S.ChildUserNs + S.ChildSysNs),
        S.RealTimeNs == 0
            ? 0.0
            : static_cast<double>(S.ChildUserNs + S.ChildSysNs) /
                  static_cast<double>(S.RealTimeNs),
        static_cast<unsigned long long>(S.MaxChildRssBytes),
        static_cast<unsigned long long>(S.JournalBytes),
        static_cast<unsigned long long>(S.JournalFsyncs),
        static_cast<unsigned long long>(S.ReplayedChunks),
        static_cast<unsigned long long>(S.RecoveryNs));
  }
  std::fprintf(F, "\n  ]\n}\n");
  if (std::fclose(F) != 0)
    fatalError("write to --json path " + JsonPath + " failed");
  std::printf("(json written to %s)\n", JsonPath.c_str());
}

void alter::bench::printHeader(const std::string &Id,
                               const std::string &What) {
  std::printf("==============================================================="
              "=\n");
  std::printf("ALTER reproduction — %s\n%s\n", Id.c_str(), What.c_str());
  std::printf("==============================================================="
              "=\n");
}
