//===- examples/run_workload.cpp - Command-line workload runner -----------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A general-purpose driver: run any of the twelve benchmarks under any
/// annotation, engine, worker count, and input — the "manual
/// parallelization" usage scenario of §6, where ALTER serves as a
/// high-level parallelism library the developer steers by hand.
///
/// Usage:
///   run_workload <name> [options]
///     --annotation '<text>'   e.g. '[StaleReads + Reduction(delta, +)]'
///     --tls                   Theorem 4.3 parameters instead
///     --engine lockstep|forkjoin|sequential   (default lockstep)
///     --schedule auto|chunked|staged|sequential
///                             run behind the schedule-aware recovery
///                             driver instead of --engine: auto lets the
///                             planner pick chunked speculation vs the
///                             stage pipeline per loop; chunked loops under
///                             the paper's annotation run on threads
///     --workers N             (default 4)
///     --cf N                  chunk factor (default: the loop's tuned one)
///     --input K               input index (default 0)
///
/// N and K must be whole decimal numbers, and N at least 1; anything else
/// prints the usage and exits with status 2.
///
/// The printed speedup is real: the wall-clock time of the whole sequential
/// algorithm over that of the ALTER call, both timed with nowNs(). The
/// cost model's clock (RunStats::SimTimeNs) is printed beside it as
/// "modeled time"; it is what the figure binaries plot, not a measurement.
/// The cost model's one-time calibration runs before the clock starts.
/// With ALTER_TRACE=events the run's critical-path profile follows.
///
/// Examples:
///   run_workload gsdense --annotation '[StaleReads]' --workers 8
///   run_workload kmeans --tls --input 2
///   run_workload genome --engine forkjoin
///
//===----------------------------------------------------------------------===//

#include "runtime/CostModel.h"
#include "support/Format.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "workloads/Workload.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace alter;

namespace {

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <workload> [--annotation '<text>' | --tls] "
               "[--engine lockstep|forkjoin|sequential] "
               "[--schedule auto|chunked|staged|sequential] [--workers N] "
               "[--cf N] [--input K]\nworkloads:",
               Argv0);
  for (const std::string &Name : allWorkloadNames())
    std::fprintf(stderr, " %s", Name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// Parses \p Text as a whole decimal number in [\p Min, INT_MAX], or
/// prints the usage and exits.
int parseNumber(const char *Argv0, const char *Text, long Min) {
  char *End = nullptr;
  errno = 0;
  const long Value = std::strtol(Text, &End, 10);
  if (!std::isdigit(static_cast<unsigned char>(Text[0])) || *End != '\0' ||
      errno == ERANGE || Value < Min || Value > INT_MAX)
    usage(Argv0);
  return static_cast<int>(Value);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    usage(Argv[0]);
  const std::string Name = Argv[1];

  std::string AnnotationText;
  std::string Engine = "lockstep";
  std::string ScheduleText;
  bool Tls = false;
  unsigned Workers = 4;
  int Cf = 0;
  size_t Input = 0;
  for (int I = 2; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(Argv[0]);
      return Argv[++I];
    };
    if (Arg == "--annotation")
      AnnotationText = Next();
    else if (Arg == "--tls")
      Tls = true;
    else if (Arg == "--engine")
      Engine = Next();
    else if (Arg == "--schedule")
      ScheduleText = Next();
    else if (Arg == "--workers")
      Workers = static_cast<unsigned>(parseNumber(Argv[0], Next(), 1));
    else if (Arg == "--cf")
      Cf = parseNumber(Argv[0], Next(), 1);
    else if (Arg == "--input")
      Input = static_cast<size_t>(parseNumber(Argv[0], Next(), 0));
    else
      usage(Argv[0]);
  }

  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (Input >= W->numInputs()) {
    alterLogAlways(LogLevel::Error, "cli",
                   "msg=\"input %zu out of range (workload has %zu)\"", Input,
                   W->numInputs());
    return 2;
  }

  // Sequential reference for validation and the baseline.
  W->setUp(Input);
  uint64_t SeqNs = 0;
  const RunResult Seq = W->runSequential(&SeqNs);
  const std::vector<double> Reference = W->outputSignature();
  std::printf("%s, input %s: sequential time %s (loop %s)\n", Name.c_str(),
              W->inputName(Input).c_str(), formatDurationNs(SeqNs).c_str(),
              formatDurationNs(Seq.Stats.RealTimeNs).c_str());

  if (Engine == "sequential")
    return 0;

  RuntimeParams Params;
  if (Tls) {
    Params = paramsForSequentialSpeculation(
        Cf > 0 ? Cf : W->defaultChunkFactor());
  } else {
    std::optional<Annotation> A;
    if (!AnnotationText.empty()) {
      std::string Error;
      A = parseAnnotation(AnnotationText, &Error);
      if (!A) {
        alterLogAlways(LogLevel::Error, "cli",
                       "msg=\"cannot parse annotation: %s\"", Error.c_str());
        return 2;
      }
    } else {
      A = W->paperAnnotation();
      if (!A) {
        alterLogAlways(LogLevel::Error, "cli",
                       "msg=\"the paper found no valid annotation for %s; "
                       "pass --annotation to force one\"",
                       Name.c_str());
        return 2;
      }
      std::printf("using the paper's annotation %s\n", A->str().c_str());
    }
    Params = W->resolveAnnotation(*A);
  }
  if (Cf > 0)
    Params.ChunkFactor = Cf;

  W->setUp(Input);
  RunResult R;
  // The cost model calibrates once per process (a memory-bandwidth probe
  // of about 12 ms); keep that out of the timed call, as a long-running
  // program would.
  CostModel::calibrated();
  const uint64_t Start = nowNs();
  if (!ScheduleText.empty()) {
    SchedulePolicy Policy = SchedulePolicy::Auto;
    if (!parseSchedulePolicy(ScheduleText, Policy)) {
      alterLogAlways(LogLevel::Error, "cli",
                     "msg=\"unknown schedule policy '%s'\"",
                     ScheduleText.c_str());
      return 2;
    }
    R = W->runScheduled(Policy, Params, Workers);
  } else if (Engine == "lockstep") {
    R = W->runLockstep(Params, Workers);
  } else if (Engine == "forkjoin") {
    R = W->runForkJoin(Params, Workers);
  } else {
    usage(Argv[0]);
  }
  const uint64_t AlterNs = nowNs() - Start;

  const bool Valid = R.succeeded() && W->validate(Reference);
  if (!ScheduleText.empty())
    std::printf("schedule policy=%s -> used=%s  workers=%u params=%s\n",
                ScheduleText.c_str(), scheduleKindName(R.ScheduleUsed),
                Workers, Params.str().c_str());
  else
    std::printf("engine=%s workers=%u params=%s\n", Engine.c_str(), Workers,
                Params.str().c_str());
  std::printf("status=%s  txns=%llu  retries=%llu (%s)  rounds=%llu\n",
              runStatusName(R.Status),
              static_cast<unsigned long long>(R.Stats.NumTransactions),
              static_cast<unsigned long long>(R.Stats.NumRetries),
              formatPercent(R.Stats.retryRate()).c_str(),
              static_cast<unsigned long long>(R.Stats.NumRounds));
  std::printf("time=%s  speedup over sequential=%s\n",
              formatDurationNs(AlterNs).c_str(),
              formatSpeedup(static_cast<double>(SeqNs) /
                            static_cast<double>(AlterNs))
                  .c_str());
  std::printf("modeled time (cost model)=%s\n",
              formatDurationNs(R.Stats.SimTimeNs).c_str());
  if (globalTraceLevel() >= TraceLevel::Events)
    std::printf("%s", R.profileTable().c_str());
  std::printf("output: %s\n", Valid ? "valid" : "INVALID");
  return Valid ? 0 : 1;
}
