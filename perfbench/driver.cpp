//===- perfbench/driver.cpp - Wall-clock benchmark driver -----------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times whole algorithm runs of the paper workloads through the public user
/// path, Workload::runScheduled(SchedulePolicy::Auto, <paper annotation>, 3)
/// (what `run_workload <name> --schedule auto --workers 3` runs), and checks
/// every output against the sequential reference.
///
///   perfbench_driver --workload <id> --seed <n> --seconds <s> --trace 0|1
///                    [--commit <id>] [--ledger <path>]
///
/// --trace 0 measures the end-to-end metrics with tracing off, and scales
/// its timings to a reference host speed (Calibrator). --trace 1
/// runs the traced ledger instead: the same runs through a LoopRunner that
/// records a span per runInner call and per stretch of outer algorithm code,
/// the runtime's phase profile, and timed calls into each layer's public
/// functions, and prints the per-layer metrics. Both print a stamp line and
/// then, as the last stdout line, one JSON object:
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// --setup-fd <fd> is internal: --trace 0 runs this binary again with it to
/// take one set-up sample in a fresh process (spawnSetupSample).
///
/// README.md in this directory defines every metric.
///
//===----------------------------------------------------------------------===//

#include "memory/AccessSet.h"
#include "memory/WriteLog.h"
#include "runtime/ConflictDetector.h"
#include "runtime/LoopRunner.h"
#include "runtime/PipelineExecutor.h"
#include "runtime/TxnWire.h"
#include "support/Io.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "workloads/Workload.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

using namespace alter;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

//===----------------------------------------------------------------------===
// Fixed settings
//===----------------------------------------------------------------------===

/// Worker processes: three, so the parent's serial validate/commit lane
/// keeps the fourth vCPU of a four-vCPU host.
constexpr unsigned NumWorkers = 3;

/// Set-ups per run, each in a fresh process and spread evenly through the
/// timed window, so a change in host speed hits them as it hits the timed
/// repetitions; setup_s is their median.
constexpr unsigned SetupSamples = 7;

/// Timed repetitions (--trace 0) and ledger cycles (--trace 1) run at least
/// this often, even past --seconds.
constexpr unsigned MinReps = 5;
constexpr unsigned MinCycles = 3;

/// Share of planned runs whose planner pick may differ from the expected
/// schedule before those runs count as failed (Bench::finishFlips). Host
/// noise flipped about 1 in 1000 ssca2-13 picks; a planner regression flips
/// far more.
constexpr double MaxFlipShare = 0.01;

/// The host-speed calibration (Calibrator): rounds of a fork-join, the work
/// of each child, the share of the timed window spent calibrating, and the
/// median time of one calibration at the reference speed (about the speed
/// of the 4-vCPU VM the bounds were set on, README.md).
constexpr unsigned CalibRounds = 8;
constexpr unsigned CalibSteps = 200'000;
constexpr size_t CalibTableWords = 32 * 1024;
constexpr double CalibShare = 0.1;
constexpr uint64_t CalibRefNs = 12'000'000;

/// Repetitions of each timed layer call; the metric is the median.
constexpr unsigned ProbeReps = 21;

/// Committed epochs a conflict check validates against (conflict.check_ns).
constexpr unsigned ProbeEpochs = 8;

/// Largest relative gap allowed between the traced wall clock and the sum
/// of the ledger's spans and gaps, and the allowed profile coverage band.
constexpr double LedgerTolerancePct = 1.0;
constexpr double CoverageLoPct = 99.0;
constexpr double CoverageHiPct = 101.0;

/// Environment knobs that change what the runtime does or records. A timed
/// run must not inherit any of them.
const char *const HermeticEnv[] = {
    "ALTER_TRACE",        "ALTER_METRICS", "ALTER_LOG",       "ALTER_JOURNAL",
    "ALTER_JOURNAL_SYNC", "ALTER_FAULTS",  "ALTER_TRANSPORT",
};

struct WorkloadDef {
  const char *Id;
  const char *Registry;
  size_t Input;
  const char *InputName;
  /// Schedule the Auto planner must pick; any other pick fails the run.
  ScheduleKind Expected;
};

const WorkloadDef Workloads[] = {
    {"floyd-288", "floyd", 1, "288 nodes", ScheduleKind::Chunked},
    {"kmeans-8k-512", "kmeans", 1, "8k-512", ScheduleKind::Chunked},
    {"ssca2-13", "ssca2", 1, "scale 13", ScheduleKind::Staged},
    // The registry's small inputs: selftest.py's inputs, held out from
    // tuning.
    {"floyd-160", "floyd", 0, "160 nodes", ScheduleKind::Chunked},
    {"kmeans-8k-256", "kmeans", 0, "8k-256", ScheduleKind::Chunked},
    {"ssca2-11", "ssca2", 0, "scale 11", ScheduleKind::Staged},
};

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Printed with --trace 0, in this order.
const MetricDef EndToEndMetrics[] = {
    {"wall_ms", "ms"},     {"cpu_ms", "ms"},         {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},      {"valid_frac", "fraction"},
};

/// Printed with --trace 1, in this order.
const MetricDef PerLayerMetrics[] = {
    {"workloads.seq_ms", "ms"},
    {"workloads.speedup", "x"},
    {"workloads.outer_ms", "ms"},
    {"workloads.invocations", "count"},
    {"runner.invoke_p50_ms", "ms"},
    {"runner.invoke_p95_ms", "ms"},
    {"runner.overhead_ms", "ms"},
    {"runner.overhead_frac", "fraction"},
    {"runner.recovered_runs", "count"},
    {"runner.schedule_flips", "count"},
    {"pool.warm_forks", "count"},
    {"pool.cold_forks", "count"},
    {"pool.child_reuses", "count"},
    {"pool.template_refreshes", "count"},
    {"pool.empty_run_us", "us"},
    {"engine.ms", "ms"},
    {"engine.busy_ms", "ms"},
    {"engine.occupancy", "fraction"},
    {"engine.dispatch_stall_ms", "ms"},
    {"engine.child_exec_ms", "ms"},
    {"engine.validation_ms", "ms"},
    {"engine.commit_lane_ms", "ms"},
    {"engine.ring_backpressure_ms", "ms"},
    {"engine.ladder_ms", "ms"},
    {"engine.other_ms", "ms"},
    {"engine.parent_cpu_ms", "ms"},
    {"engine.child_cpu_ms", "ms"},
    {"engine.max_child_rss_mb", "MiB"},
    {"stage.stalls", "count"},
    {"stage.queue_depth_peak", "count"},
    {"conflict.txns", "count"},
    {"conflict.retries", "count"},
    {"conflict.commit_frac", "fraction"},
    {"conflict.bloom_skip_frac", "fraction"},
    {"conflict.check_ns", "ns"},
    {"commit.write_words_per_txn", "words"},
    {"commit.wire_bytes_per_txn", "bytes"},
    {"commit.wire_compression", "ratio"},
    {"commit.apply_ns", "ns"},
    {"commit.decode_ns", "ns"},
    {"txn.instr_calls", "count"},
    {"txn.lockstep_p1_ms", "ms"},
    {"trace.overhead", "ratio"},
};

//===----------------------------------------------------------------------===
// Small helpers
//===----------------------------------------------------------------------===

[[noreturn]] void die(const char *Fmt, const char *Arg) {
  std::fprintf(stderr, "perfbench: ");
  std::fprintf(stderr, Fmt, Arg);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double ms(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

double ratio(double Num, double Den) { return Den == 0.0 ? 0.0 : Num / Den; }

uint64_t tvNs(const timeval &T) {
  return static_cast<uint64_t>(T.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(T.tv_usec) * 1000ULL;
}

rusage usageOf(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return U;
}

/// User plus system CPU of this process.
uint64_t selfCpuNs() {
  const rusage U = usageOf(RUSAGE_SELF);
  return tvNs(U.ru_utime) + tvNs(U.ru_stime);
}

/// User plus system CPU of this process and of every descendant reaped so
/// far (the engines reap their whole pool before runScheduled returns).
uint64_t treeCpuNs() {
  const rusage C = usageOf(RUSAGE_CHILDREN);
  return selfCpuNs() + tvNs(C.ru_utime) + tvNs(C.ru_stime);
}

/// Linear interpolation between closest ranks; 0 for no samples.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double sumNs(const std::vector<uint64_t> &V) {
  return static_cast<double>(std::accumulate(V.begin(), V.end(), uint64_t(0)));
}

/// Median ns per call of \p Fn over ProbeReps batches of \p Batch calls.
template <typename FnT> double timePerCallNs(unsigned Batch, FnT Fn) {
  std::vector<double> PerCall;
  for (unsigned Rep = 0; Rep != ProbeReps; ++Rep) {
    const uint64_t Start = nowNs();
    for (unsigned I = 0; I != Batch; ++I)
      Fn();
    PerCall.push_back(static_cast<double>(nowNs() - Start) / Batch);
  }
  return median(PerCall);
}

/// Metric samples by name; every printed value is a median over them.
using SampleMap = std::map<std::string, std::vector<double>>;

//===----------------------------------------------------------------------===
// Host speed
//===----------------------------------------------------------------------===

/// The fixed work one child of the calibration kernel does: a dependent
/// floating-point chain and scattered updates of a 256 KiB table.
uint64_t calibrationWork(uint64_t Seed) {
  std::vector<uint64_t> Table(CalibTableWords, Seed);
  double X = 1.0;
  uint64_t H = Seed | 1;
  for (unsigned I = 0; I != CalibSteps; ++I) {
    X = X * 1.0000001 + 1e-9;
    H = (H ^ I) * 1099511628211ULL;
    Table[H % CalibTableWords] += H;
  }
  return H ^ Table[Seed % CalibTableWords] ^ static_cast<uint64_t>(X);
}

/// One calibration: CalibRounds fork-joins of NumWorkers children that each
/// do calibrationWork and report over a pipe. Runs in the calibration
/// process; 0 when a fork or pipe failed.
uint64_t calibrationKernel() {
  const uint64_t Start = nowNs();
  for (unsigned Round = 0; Round != CalibRounds; ++Round) {
    int Fds[2];
    if (pipe(Fds) != 0)
      return 0;
    pid_t Kids[NumWorkers];
    unsigned Forked = 0;
    for (; Forked != NumWorkers; ++Forked) {
      Kids[Forked] = fork();
      if (Kids[Forked] < 0)
        break;
      if (Kids[Forked] == 0) {
        const uint64_t V = calibrationWork(Round * NumWorkers + Forked);
        _exit(writeFull(Fds[1], &V, sizeof(V)) ? 0 : 1);
      }
    }
    close(Fds[1]);
    bool Ok = Forked == NumWorkers;
    for (unsigned K = 0; K != Forked; ++K) {
      uint64_t V = 0;
      Ok &= readFull(Fds[0], &V, sizeof(V));
    }
    close(Fds[0]);
    for (unsigned K = 0; K != Forked; ++K) {
      int Status = 0;
      while (waitpid(Kids[K], &Status, 0) < 0 && errno == EINTR) {
      }
      Ok &= WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
    }
    if (!Ok)
      return 0;
  }
  return nowNs() - Start;
}

/// Host speed drifts by up to 1.5x over tens of minutes on a shared virtual
/// machine, and moves every timing of identical code alike (README.md). A
/// Calibrator is a small process, forked before any input is built, that
/// times calibrationKernel on request: fork, wake-ups across vCPUs and
/// compute, like the engines, but none of ALTER's code. The driver runs it
/// between timed repetitions, while nothing else of its own runs, and scales
/// its timings to the host speed at which the kernel takes CalibRefNs.
class Calibrator {
public:
  Calibrator() {
    int ToFds[2], FromFds[2];
    if (pipe(ToFds) != 0 || pipe(FromFds) != 0)
      die("cannot create the calibration pipes: %s", std::strerror(errno));
    std::fflush(nullptr);
    Pid = fork();
    if (Pid < 0)
      die("cannot fork the calibration process: %s", std::strerror(errno));
    if (Pid == 0) {
      close(ToFds[1]);
      close(FromFds[0]);
      char Cmd = 0;
      while (readFull(ToFds[0], &Cmd, 1) && Cmd == MeasureCmd) {
        const uint64_t Ns = calibrationKernel();
        if (!writeFull(FromFds[1], &Ns, sizeof(Ns)))
          break;
      }
      _exit(0);
    }
    close(ToFds[0]);
    close(FromFds[1]);
    ToFd = ToFds[1];
    FromFd = FromFds[0];
    // Set-up processes exec; they need neither end.
    fcntl(ToFd, F_SETFD, FD_CLOEXEC);
    fcntl(FromFd, F_SETFD, FD_CLOEXEC);
  }

  /// Ends the calibration process and reaps it. It is told to quit rather
  /// than left to see end of file, since forked engine processes share the
  /// command pipe and may outlive this call.
  ~Calibrator() {
    writeFull(ToFd, &QuitCmd, 1);
    close(ToFd);
    close(FromFd);
    int Status = 0;
    while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
  }

  Calibrator(const Calibrator &) = delete;
  Calibrator &operator=(const Calibrator &) = delete;

  /// Times one calibration, adding it to Samples.
  void measure() {
    uint64_t Ns = 0;
    if (!writeFull(ToFd, &MeasureCmd, 1) ||
        !readFull(FromFd, &Ns, sizeof(Ns)) || Ns == 0)
      die("the calibration process failed%s", "");
    Samples.push_back(static_cast<double>(Ns));
  }

  /// Host speed relative to the reference: above 1 on a faster host.
  double speed() const {
    return static_cast<double>(CalibRefNs) / median(Samples);
  }

  std::vector<double> Samples;

private:
  static constexpr char MeasureCmd = 'm';
  static constexpr char QuitCmd = 'q';
  pid_t Pid = -1;
  int ToFd = -1;
  int FromFd = -1;
};

//===----------------------------------------------------------------------===
// The benchmark state for one workload
//===----------------------------------------------------------------------===

struct Bench {
  const WorkloadDef &Def;
  uint64_t Seed;
  double Seconds;
  std::unique_ptr<Workload> W;
  RuntimeParams Params;
  std::vector<double> Reference;
  unsigned Attempted = 0;
  unsigned Failed = 0;
  /// Checked runs that needed the sequential fallback (RunStats::Recovered).
  unsigned Recovered = 0;
  /// Checked runs that went through the Auto planner, and those of them
  /// whose pick was not Def.Expected.
  unsigned Planned = 0;
  unsigned Flips = 0;
  /// Planned runs by the schedule the planner picked, for the stamp.
  std::map<std::string, unsigned> Schedules;

  Bench(const WorkloadDef &Def, uint64_t Seed, double Seconds)
      : Def(Def), Seed(Seed), Seconds(Seconds),
        W(makeWorkload(Def.Registry)) {
    if (W->inputName(Def.Input) != Def.InputName)
      die("registry input changed under %s", Def.Id);
    Params = W->resolveAnnotation(*W->paperAnnotation());
    W->setUp(Def.Input);
    W->runSequential();
    Reference = W->outputSignature();
  }

  /// The timed call: one full algorithm run on the public user path.
  RunResult runAlter() {
    return W->runScheduled(SchedulePolicy::Auto, Params, NumWorkers);
  }

  /// Why the run just made is wrong, or null when it returned Success and
  /// its output matches the sequential reference.
  const char *verdict(const RunResult &R) const {
    if (!R.succeeded())
      return runStatusName(R.Status);
    if (!W->validate(Reference))
      return "output differs from the sequential reference";
    return nullptr;
  }

  /// Counts one checked run; false (with the reason on stderr) when it did
  /// not succeed or its output differs from the sequential reference. For a
  /// \p IsPlanned run, a planner pick other than the expected schedule
  /// counts in Flips (see finishFlips).
  bool check(const RunResult &R, const char *What, bool IsPlanned = true) {
    return count(verdict(R), R.Stats.Recovered,
                 IsPlanned ? std::optional(R.ScheduleUsed) : std::nullopt,
                 What);
  }

  /// Counts one checked run from its verdict; \p Used is empty for a run
  /// that bypassed the planner.
  bool count(const char *Why, bool WasRecovered,
             std::optional<ScheduleKind> Used, const char *What) {
    ++Attempted;
    if (WasRecovered)
      ++Recovered;
    if (Used)
      noteSchedule(*Used, What);
    if (!Why)
      return true;
    fail(What, Why);
    return false;
  }

  /// Counts one planner pick, and a flip when it is not the workload's
  /// expected schedule.
  void noteSchedule(ScheduleKind Used, const char *What) {
    ++Planned;
    ++Schedules[scheduleKindName(Used)];
    if (Used == Def.Expected)
      return;
    ++Flips;
    std::fprintf(stderr, "perfbench: %s run of %s picked the %s schedule\n",
                 What, Def.Id, scheduleKindName(Used));
  }

  /// The planner prices schedules from a timed probe, so host noise can flip
  /// a rare pick, while a planner regression flips many. Past MaxFlipShare
  /// of the planned runs, every flipped run counts as failed.
  void finishFlips() {
    if (Flips <= MaxFlipShare * Planned)
      return;
    Failed += Flips;
    std::fprintf(stderr,
                 "perfbench: %u of %u planned runs of %s picked another "
                 "schedule than %s\n",
                 Flips, Planned, Def.Id, scheduleKindName(Def.Expected));
  }

  /// Counts one failed run or check, with its reason on stderr.
  void fail(const char *What, const std::string &Why) {
    ++Failed;
    std::fprintf(stderr, "perfbench: %s run of %s failed: %s\n", What, Def.Id,
                 Why.c_str());
  }
};

//===----------------------------------------------------------------------===
// Set-up samples (setup_s)
//===----------------------------------------------------------------------===

struct SetupSample {
  uint64_t Ns = 0;
  bool Valid = false; ///< Success and validate() against the reference
  bool Recovered = false;
  ScheduleKind Schedule = ScheduleKind::Unknown;
};

/// The set-up process (--setup-fd): times what a fresh process pays before
/// its first timed repetition, input construction plus the warm-up ALTER
/// run, checks the warm-up, and writes the sample to \p Fd.
int runSetupSample(Bench &B, int Fd) {
  const uint64_t Start = nowNs();
  B.W->setUp(B.Def.Input);
  const RunResult R = B.runAlter();
  SetupSample S;
  S.Ns = nowNs() - Start;
  const char *Why = B.verdict(R);
  if (Why)
    B.fail("set-up", Why);
  S.Valid = !Why;
  S.Recovered = R.Stats.Recovered;
  S.Schedule = R.ScheduleUsed;
  return writeFull(Fd, &S, sizeof(S)) ? 0 : 1;
}

/// One set-up in a fresh process: this driver executed again with
/// --setup-fd, so nothing this process warmed is shared. False when it could
/// not run or report.
bool spawnSetupSample(const Bench &B, SetupSample &Out) {
  int Fds[2];
  if (pipe(Fds) != 0)
    return false;
  const std::string Seed = std::to_string(B.Seed);
  const std::string Fd = std::to_string(Fds[1]);
  const char *const Args[] = {"perfbench_driver", "--workload", B.Def.Id,
                              "--seed",           Seed.c_str(), "--seconds",
                              "1",                "--trace",    "0",
                              "--setup-fd",       Fd.c_str(),   nullptr};
  std::fflush(nullptr);
  const pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    return false;
  }
  if (Pid == 0) {
    close(Fds[0]);
    execv("/proc/self/exe", const_cast<char *const *>(Args));
    _exit(127);
  }
  close(Fds[1]);
  SetupSample S;
  const bool Got = readFull(Fds[0], &S, sizeof(S));
  close(Fds[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!Got || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return false;
  Out = S;
  return true;
}

//===----------------------------------------------------------------------===
// --trace 0: end-to-end metrics
//===----------------------------------------------------------------------===

/// A sample marked when its run's planner pick was not the expected
/// schedule.
struct Marked {
  double Value;
  bool Flipped;
};

/// Appends the samples of runs that kept the expected schedule: a flipped
/// run times another program. When every run flipped, the result fails in
/// finishFlips and all samples are kept, so the metric is still printed.
void keepUnflipped(std::vector<double> &Out, const std::vector<Marked> &In) {
  const bool AllFlipped = std::all_of(
      In.begin(), In.end(), [](const Marked &M) { return M.Flipped; });
  for (const Marked &M : In)
    if (!M.Flipped || AllFlipped)
      Out.push_back(M.Value);
}

void runEndToEnd(Bench &B, Calibrator &Cal, SampleMap &Out) {
  // This process's own warm-up, untimed: the first run in a process is an
  // outlier that set-up already accounts for.
  B.W->setUp(B.Def.Input);
  B.check(B.runAlter(), "warm-up");

  std::vector<Marked> WallMs, CpuMs, SetupS;
  unsigned Valid = 0;
  const uint64_t WindowNs = static_cast<uint64_t>(B.Seconds * 1e9);
  const uint64_t Start = nowNs();
  // Time spent in set-up samples and calibrations, outside the window.
  uint64_t SetupNs = 0, CalibNs = 0;
  auto Elapsed = [&] { return nowNs() - Start - SetupNs - CalibNs; };
  while (WallMs.size() < MinReps || SetupS.size() < SetupSamples ||
         Elapsed() < WindowNs) {
    // Set-up sample K is due once K/SetupSamples of the window has passed.
    if (SetupS.size() < SetupSamples &&
        Elapsed() >= SetupS.size() * WindowNs / SetupSamples) {
      const uint64_t SetupStart = nowNs();
      SetupSample S;
      if (!spawnSetupSample(B, S))
        die("set-up process for %s did not report", B.Def.Id);
      SetupNs += nowNs() - SetupStart;
      B.count(S.Valid ? nullptr : "warm-up did not succeed or validate",
              S.Recovered, S.Schedule, "set-up");
      SetupS.push_back({static_cast<double>(S.Ns) / 1e9,
                        S.Schedule != B.Def.Expected});
      continue;
    }
    B.W->setUp(B.Def.Input);
    const uint64_t Cpu0 = treeCpuNs();
    const uint64_t RunStart = nowNs();
    const RunResult R = B.runAlter();
    const uint64_t WallNs = nowNs() - RunStart;
    const uint64_t CpuNs = treeCpuNs() - Cpu0;
    if (B.check(R, "timed"))
      ++Valid;
    const bool Flipped = R.ScheduleUsed != B.Def.Expected;
    WallMs.push_back({ms(WallNs), Flipped});
    CpuMs.push_back({ms(CpuNs), Flipped});
    // Calibrate as the window goes, keeping to CalibShare of it.
    while (CalibNs < CalibShare * static_cast<double>(Elapsed())) {
      const uint64_t CalibStart = nowNs();
      Cal.measure();
      CalibNs += nowNs() - CalibStart;
    }
  }
  Out["valid_frac"].push_back(static_cast<double>(Valid) / WallMs.size());
  keepUnflipped(Out["wall_ms"], WallMs);
  keepUnflipped(Out["cpu_ms"], CpuMs);
  keepUnflipped(Out["setup_s"], SetupS);
  const rusage Self = usageOf(RUSAGE_SELF);
  const rusage Kids = usageOf(RUSAGE_CHILDREN);
  // ru_maxrss is in KiB on Linux.
  Out["peak_rss_mb"].push_back(
      static_cast<double>(std::max(Self.ru_maxrss, Kids.ru_maxrss)) / 1024.0);
}

//===----------------------------------------------------------------------===
// --trace 1: the per-layer ledger
//===----------------------------------------------------------------------===

/// Forwards every runInner call to the RecoveringLoopRunner runScheduled
/// would build, recording one span per call and one gap per stretch of
/// outer algorithm code around the calls. The wrapped runner's accumulated
/// result is read through accumulated(); this wrapper's own result() stays
/// empty.
class LedgerRunner : public LoopRunner {
public:
  explicit LedgerRunner(const ExecutorConfig &Config)
      : Inner(ParallelEngine::Pipeline, Config) {}

  /// Opens the ledger; the first gap runs from here to the first call.
  void start() { LastEndNs = nowNs(); }

  bool runInner(const LoopSpec &Spec) override {
    const uint64_t Start = nowNs();
    GapsNs.push_back(Start - LastEndNs);
    const uint64_t EngineBefore = Inner.result().Stats.RealTimeNs;
    const uint64_t CpuBefore = selfCpuNs();
    const bool Ok = Inner.runInner(Spec);
    ParentCpuNs += selfCpuNs() - CpuBefore;
    EngineNs += Inner.result().Stats.RealTimeNs - EngineBefore;
    LastEndNs = nowNs();
    SpansNs.push_back(LastEndNs - Start);
    return Ok;
  }

  /// Closes the ledger: the outer code after the last call is the final
  /// gap.
  void finish() { GapsNs.push_back(nowNs() - LastEndNs); }

  const RunResult &accumulated() const { return Inner.result(); }

  std::vector<uint64_t> SpansNs;
  std::vector<uint64_t> GapsNs;
  uint64_t EngineNs = 0;
  uint64_t ParentCpuNs = 0;

private:
  RecoveringLoopRunner Inner;
  uint64_t LastEndNs = 0;
};

/// One traced run, as written to the ledger file.
struct LedgerRecord {
  uint64_t WallNs = 0;
  std::vector<uint64_t> SpansNs;
  std::vector<uint64_t> GapsNs;
  RunProfile Profile;
  double ReconcilePct = 0.0;
};

/// One traced algorithm run: tracing and metrics on, the same executor
/// configuration runScheduled builds, the ledger around every call.
void tracedRun(Bench &B, SampleMap &Out, std::vector<LedgerRecord> &Ledger) {
  B.W->setUp(B.Def.Input);
  setGlobalTraceLevel(TraceLevel::Events);
  setGlobalMetricsEnabled(true);
  ExecutorConfig Config;
  Config.NumWorkers = NumWorkers;
  Config.Params = B.Params;
  Config.SeqBaselineNs = 0;
  Config.Allocator = B.W->allocator();
  Config.Schedule = SchedulePolicy::Auto;

  // The wall clock also covers building the runner, which no span or gap
  // sees, so the reconciliation below bounds everything the ledger misses.
  const uint64_t Start = nowNs();
  LedgerRunner L(Config);
  L.start();
  B.W->run(L);
  L.finish();
  const uint64_t WallNs = nowNs() - Start;
  setGlobalTraceLevel(TraceLevel::Off);
  setGlobalMetricsEnabled(false);

  const RunResult &R = L.accumulated();
  B.check(R, "traced");
  LedgerRecord Rec;
  Rec.WallNs = WallNs;
  Rec.Profile = R.computeProfile();
  const double SpansNs = sumNs(L.SpansNs);
  const double GapsNs = sumNs(L.GapsNs);
  Rec.ReconcilePct =
      100.0 * std::fabs(SpansNs + GapsNs - static_cast<double>(WallNs)) /
      static_cast<double>(WallNs);
  if (Rec.ReconcilePct > LedgerTolerancePct)
    B.fail("traced", "ledger spans plus gaps miss the wall clock by " +
                         std::to_string(Rec.ReconcilePct) + "%");
  const double Coverage = Rec.Profile.coveragePct();
  if (Coverage < CoverageLoPct || Coverage > CoverageHiPct)
    B.fail("traced",
           "profile covers " + std::to_string(Coverage) + "% of the engine");
  if (R.TraceEventsDropped != 0)
    B.fail("traced", std::to_string(R.TraceEventsDropped) +
                         " trace events dropped");

  const RunStats &S = R.Stats;
  const RunProfile &P = Rec.Profile;
  std::vector<double> Spans;
  for (uint64_t Ns : L.SpansNs)
    Spans.push_back(ms(Ns));
  auto Add = [&Out](const char *Name, double V) { Out[Name].push_back(V); };
  Add("traced_wall_ms", ms(WallNs));
  Add("workloads.outer_ms", GapsNs / 1e6);
  Add("workloads.invocations", static_cast<double>(L.SpansNs.size()));
  Add("runner.invoke_p50_ms", quantile(Spans, 0.5));
  Add("runner.invoke_p95_ms", quantile(Spans, 0.95));
  Add("runner.overhead_ms",
      (SpansNs - static_cast<double>(L.EngineNs)) / 1e6);
  Add("pool.warm_forks", static_cast<double>(S.WarmForks));
  Add("pool.cold_forks", static_cast<double>(S.ColdForks));
  Add("pool.child_reuses", static_cast<double>(S.ChildReuses));
  Add("pool.template_refreshes", static_cast<double>(S.TemplateRefreshes));
  Add("engine.ms", ms(S.RealTimeNs));
  Add("engine.busy_ms", ms(S.WorkerBusyNs));
  Add("engine.occupancy", S.occupancy());
  Add("engine.dispatch_stall_ms", ms(P.DispatchStallNs));
  Add("engine.child_exec_ms", ms(P.ChildExecNs));
  Add("engine.validation_ms", ms(P.ValidationNs));
  Add("engine.commit_lane_ms", ms(P.CommitLaneNs));
  Add("engine.ring_backpressure_ms", ms(P.RingBackpressureNs));
  Add("engine.ladder_ms", ms(P.LadderNs));
  Add("engine.other_ms", ms(P.OtherNs));
  Add("engine.parent_cpu_ms", ms(L.ParentCpuNs));
  Add("engine.child_cpu_ms", ms(S.ChildUserNs + S.ChildSysNs));
  Add("engine.max_child_rss_mb",
      static_cast<double>(S.MaxChildRssBytes) / (1024.0 * 1024.0));
  Add("stage.stalls", static_cast<double>(S.StageStalled));
  Add("stage.queue_depth_peak", static_cast<double>(S.QueueDepthPeak));
  Add("conflict.txns", static_cast<double>(S.NumTransactions));
  Add("conflict.retries", static_cast<double>(S.NumRetries));
  Add("conflict.commit_frac",
      ratio(static_cast<double>(S.NumCommitted),
            static_cast<double>(S.NumTransactions)));
  Add("conflict.bloom_skip_frac",
      ratio(static_cast<double>(S.BloomSkips),
            static_cast<double>(S.BloomChecks)));
  Add("commit.write_words_per_txn", S.WriteSetWords.mean());
  Add("commit.wire_bytes_per_txn",
      ratio(static_cast<double>(S.WireBytes),
            static_cast<double>(S.NumTransactions)));
  Add("commit.wire_compression", S.wireCompressionRatio());
  Add("txn.instr_calls",
      static_cast<double>(S.InstrReadCalls + S.InstrWriteCalls));

  Rec.SpansNs = std::move(L.SpansNs);
  Rec.GapsNs = std::move(L.GapsNs);
  Ledger.push_back(std::move(Rec));
}

/// pool.empty_run_us: one PipelineExecutor::run of a one-iteration no-op
/// loop at P workers — the per-invocation fixed cost with no work in it.
double probeEmptyRunUs(Bench &B) {
  ExecutorConfig Config;
  Config.NumWorkers = NumWorkers;
  Config.Params = B.Params;
  Config.Params.Reductions.clear();
  LoopSpec Spec;
  Spec.Name = "perfbench.empty";
  Spec.NumIterations = 1;
  Spec.Body = [](TxnContext &, int64_t) {};
  PipelineExecutor Exec(Config);
  std::vector<double> Us;
  for (unsigned Rep = 0; Rep != ProbeReps; ++Rep) {
    const uint64_t Start = nowNs();
    const RunResult R = Exec.run(Spec);
    Us.push_back(static_cast<double>(nowNs() - Start) / 1e3);
    if (!R.succeeded())
      B.fail("empty-loop", runStatusName(R.Status));
  }
  return median(Us);
}

/// commit.decode_ns, commit.apply_ns and conflict.check_ns on a synthetic
/// transaction of the workload's mean write-set size: \p Words scattered
/// 8-byte stores, seeded by --seed, encoded by the child-side frame encoder.
void probeCommitPath(Bench &B, size_t Words, SampleMap &Out) {
  Xoshiro256StarStar Rng(B.Seed ^ 0x5045524642454e43ULL);
  const size_t Span = Words * 16;
  std::vector<uint64_t> Target(Span, 0);
  std::vector<size_t> Slots(Span);
  std::iota(Slots.begin(), Slots.end(), size_t(0));
  for (size_t I = 0; I != Words; ++I)
    std::swap(Slots[I], Slots[I + Rng.nextBounded(Span - I)]);
  Slots.resize(Words);

  LoopSpec Spec;
  Spec.Name = "perfbench.frame";
  Spec.NumIterations = static_cast<int64_t>(Words);
  Spec.Body = [&Target, &Slots](TxnContext &Ctx, int64_t I) {
    const size_t Slot = Slots[static_cast<size_t>(I)];
    Ctx.store(&Target[Slot], static_cast<uint64_t>(I) + 1);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 1;
  Config.Params = B.Params;
  Config.Params.Reductions.clear();
  Config.Trace = TraceLevel::Off;
  Config.Metrics = false;

  TxnContext Ctx(ContextMode::Transactional, &Config.Params, &Spec, nullptr,
                 /*Worker=*/1);
  Ctx.beginTxn();
  for (int64_t I = 0; I != Spec.NumIterations; ++I)
    Spec.Body(Ctx, I);
  Ctx.captureRedo();
  TraceBuffer Trace(TraceLevel::Off);
  const std::vector<uint8_t> Frame = encodeCommitFrame(
      Ctx, Config, /*Worker=*/1, /*Chunk=*/0, /*WorkNs=*/0, Trace);

  ChildReport Rep;
  std::string Error;
  if (!decodeChildReport(Frame, Spec, Config.Params, Rep, Error)) {
    B.fail("commit-path", "synthetic frame rejected: " + Error);
    return;
  }
  Out["commit.decode_ns"].push_back(timePerCallNs(64, [&] {
    ChildReport Fresh;
    decodeChildReport(Frame, Spec, Config.Params, Fresh, Error);
  }));
  Out["commit.apply_ns"].push_back(
      timePerCallNs(64, [&] { Rep.Log.apply(); }));

  // Conflict check against ProbeEpochs committed write sets of the same
  // size, disjoint from the candidate (the common, conflict-free case).
  std::vector<uint64_t> Committed(Span * ProbeEpochs, 0);
  ConflictDetector Detector(Config.Params.Conflict);
  for (unsigned E = 0; E != ProbeEpochs; ++E) {
    AccessSet Writes;
    for (size_t I = 0; I != Words; ++I)
      Writes.insert(&Committed[E * Span + Rng.nextBounded(Span)]);
    Detector.recordCommitEpoch(Writes);
  }
  AccessSet Reads;
  if (Config.Params.tracksReads())
    Reads = Rep.Writes;
  bool Conflict = false;
  Out["conflict.check_ns"].push_back(timePerCallNs(256, [&] {
    Conflict |= Detector.hasConflictSince(0, Reads, Rep.Writes);
  }));
  if (Conflict)
    B.fail("commit-path", "disjoint sets reported as a conflict");
}

void runLedger(Bench &B, SampleMap &Out, std::vector<LedgerRecord> &Ledger) {
  setGlobalTraceLevel(TraceLevel::Off);
  setGlobalMetricsEnabled(false);
  B.W->setUp(B.Def.Input);
  B.check(B.runAlter(), "warm-up");

  // Each cycle runs the four kinds of repetition once, in a seeded order,
  // so a shift in host speed hits all four alike.
  enum Step { Sequential, Untraced, Traced, Lockstep };
  Xoshiro256StarStar Rng(B.Seed);
  std::vector<double> UntracedMs;
  unsigned Cycles = 0;
  const uint64_t Deadline =
      nowNs() + static_cast<uint64_t>(B.Seconds * 1e9);
  while (Cycles < MinCycles || nowNs() < Deadline) {
    Step Order[] = {Sequential, Untraced, Traced, Lockstep};
    for (size_t I = 3; I != 0; --I)
      std::swap(Order[I], Order[Rng.nextBounded(I + 1)]);
    for (Step S : Order) {
      switch (S) {
      case Sequential: {
        B.W->setUp(B.Def.Input);
        uint64_t TotalNs = 0;
        B.W->runSequential(&TotalNs);
        Out["workloads.seq_ms"].push_back(ms(TotalNs));
        break;
      }
      case Untraced: {
        B.W->setUp(B.Def.Input);
        const uint64_t Start = nowNs();
        const RunResult R = B.runAlter();
        UntracedMs.push_back(ms(nowNs() - Start));
        B.check(R, "untraced");
        break;
      }
      case Traced:
        tracedRun(B, Out, Ledger);
        break;
      case Lockstep: {
        B.W->setUp(B.Def.Input);
        const uint64_t Start = nowNs();
        const RunResult R = B.W->runLockstep(B.Params, 1);
        Out["txn.lockstep_p1_ms"].push_back(ms(nowNs() - Start));
        B.check(R, "lockstep", /*IsPlanned=*/false);
        break;
      }
      }
    }
    ++Cycles;
  }

  const double WallMs = median(UntracedMs);
  Out["workloads.speedup"].push_back(
      ratio(median(Out["workloads.seq_ms"]), WallMs));
  Out["trace.overhead"].push_back(
      ratio(median(Out["traced_wall_ms"]), WallMs));
  Out["runner.overhead_frac"].push_back(
      ratio(median(Out["runner.overhead_ms"]), WallMs));
  Out["runner.recovered_runs"].push_back(static_cast<double>(B.Recovered));
  Out["runner.schedule_flips"].push_back(static_cast<double>(B.Flips));
  Out["pool.empty_run_us"].push_back(probeEmptyRunUs(B));
  const double Words = median(Out["commit.write_words_per_txn"]);
  probeCommitPath(B, std::max<size_t>(1, static_cast<size_t>(
                                             std::lround(Words))),
                  Out);
}

//===----------------------------------------------------------------------===
// Output
//===----------------------------------------------------------------------===

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string stampJson(const Bench &B, const std::string &Commit,
                      const std::string &Extra) {
  std::string S = "{\"workload\": \"";
  S += B.Def.Id;
  S += "\", \"seed\": " + std::to_string(B.Seed);
  S += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  S += ", \"workers\": " + std::to_string(NumWorkers);
  S += ", \"transport\": \"";
  S += transportKindName(globalTransportKind());
  S += "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"commit\": \"";
  S += Commit + "\", \"recovered\": " + std::to_string(B.Recovered);
  S += ", \"schedules\": {";
  for (const auto &[Name, Count] : B.Schedules) {
    if (S.back() != '{')
      S += ", ";
    S += "\"" + Name + "\": " + std::to_string(Count);
  }
  S += "}" + Extra + "}";
  return S;
}

/// Scales the timed metrics of \p Samples to the reference host speed and
/// returns the stamp members that record the speed and the raw medians.
std::string normalizeToHostSpeed(const Calibrator &Cal, SampleMap &Samples) {
  const double Speed = Cal.speed();
  std::string S = ", \"host_speed\": " + jsonNumber(Speed) +
                  ", \"calibrations\": " + std::to_string(Cal.Samples.size()) +
                  ", \"raw\": {";
  for (const char *Name : {"wall_ms", "cpu_ms", "setup_s"}) {
    std::vector<double> &V = Samples[Name];
    if (S.back() != '{')
      S += ", ";
    S += "\"" + std::string(Name) + "\": " + jsonNumber(median(V));
    for (double &X : V)
      X *= Speed;
  }
  return S + "}";
}

void writeLedger(const std::string &Path, const std::string &Stamp,
                 const std::vector<LedgerRecord> &Ledger) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write ledger %s: %s\n",
                 Path.c_str(), std::strerror(errno));
    return;
  }
  auto List = [F](const std::vector<uint64_t> &V) {
    std::fputc('[', F);
    for (size_t I = 0; I != V.size(); ++I)
      std::fprintf(F, "%s%llu", I ? ", " : "",
                   static_cast<unsigned long long>(V[I]));
    std::fputc(']', F);
  };
  std::fprintf(F, "{\"stamp\": %s, \"runs\": [", Stamp.c_str());
  for (size_t I = 0; I != Ledger.size(); ++I) {
    const LedgerRecord &Rec = Ledger[I];
    const RunProfile &P = Rec.Profile;
    std::fprintf(F, "%s\n {\"wall_ns\": %llu, \"reconcile_pct\": %s, ",
                 I ? "," : "", static_cast<unsigned long long>(Rec.WallNs),
                 jsonNumber(Rec.ReconcilePct).c_str());
    std::fprintf(F, "\"profile_ns\": {\"wall\": %llu, \"dispatch_stall\": "
                    "%llu, \"child_exec\": %llu, \"validation\": %llu, "
                    "\"commit_lane\": %llu, \"ring_backpressure\": %llu, "
                    "\"ladder\": %llu, \"other\": %llu}, \"spans_ns\": ",
                 static_cast<unsigned long long>(P.WallNs),
                 static_cast<unsigned long long>(P.DispatchStallNs),
                 static_cast<unsigned long long>(P.ChildExecNs),
                 static_cast<unsigned long long>(P.ValidationNs),
                 static_cast<unsigned long long>(P.CommitLaneNs),
                 static_cast<unsigned long long>(P.RingBackpressureNs),
                 static_cast<unsigned long long>(P.LadderNs),
                 static_cast<unsigned long long>(P.OtherNs));
    List(Rec.SpansNs);
    std::fprintf(F, ", \"gaps_ns\": ");
    List(Rec.GapsNs);
    std::fputc('}', F);
  }
  std::fprintf(F, "\n]}\n");
  std::fclose(F);
}

/// Prints the result line. Every metric of \p Defs must have samples.
void printResult(const Bench &B, const SampleMap &Samples,
                 const MetricDef *Defs, size_t NumDefs) {
  std::string Metrics;
  for (size_t I = 0; I != NumDefs; ++I) {
    const auto It = Samples.find(Defs[I].Name);
    if (It == Samples.end() || It->second.empty())
      die("no samples for metric %s", Defs[I].Name);
    if (!Metrics.empty())
      Metrics += ", ";
    Metrics.append("\"").append(Defs[I].Name).append("\": {\"value\": ");
    Metrics.append(jsonNumber(median(It->second)));
    Metrics.append(", \"unit\": \"").append(Defs[I].Unit).append("\"}");
  }
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": {%s}}\n",
              B.Failed == 0 ? "true" : "false", B.Attempted, B.Failed,
              Metrics.c_str());
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <id> --seed <n> "
               "--seconds <s> --trace 0|1 [--commit <id>] [--ledger <path>]\n"
               "workloads:");
  for (const WorkloadDef &Def : Workloads)
    std::fprintf(stderr, " %s", Def.Id);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadId, Commit = "unknown", LedgerPath;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  int Trace = -1;
  int SetupFd = -1; // set only in the set-up process (spawnSetupSample)
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage();
    const char *Value = Argv[++I];
    if (Arg == "--workload")
      WorkloadId = Value;
    else if (Arg == "--seed")
      Seed = std::strtoull(Value, nullptr, 10);
    else if (Arg == "--seconds")
      Seconds = std::atof(Value);
    else if (Arg == "--trace")
      Trace = std::atoi(Value);
    else if (Arg == "--commit")
      Commit = Value;
    else if (Arg == "--ledger")
      LedgerPath = Value;
    else if (Arg == "--setup-fd")
      SetupFd = std::atoi(Value);
    else
      usage();
  }
  const WorkloadDef *Def = nullptr;
  for (const WorkloadDef &D : Workloads)
    if (WorkloadId == D.Id)
      Def = &D;
  if (!Def || Seconds <= 0.0 || (Trace != 0 && Trace != 1))
    usage();

  // Hermetic timed runs: no inherited runtime knobs, an optimized build, the
  // default ring transport.
  for (const char *Name : HermeticEnv)
    if (std::getenv(Name))
      die("refusing to run with %s set", Name);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
    die("refusing to time a %s build; configure with "
        "-DCMAKE_BUILD_TYPE=Release",
        PERFBENCH_BUILD_TYPE);
#ifndef __OPTIMIZE__
  die("refusing to time an unoptimized build%s", "");
#endif
  if (globalTransportKind() != TransportKind::Ring)
    die("refusing to run on the %s transport",
        transportKindName(globalTransportKind()));

  if (SetupFd >= 0) {
    Bench B(*Def, Seed, Seconds);
    return runSetupSample(B, SetupFd);
  }
  // Forked before the input is built, so the calibration process stays
  // small whatever the workload.
  std::optional<Calibrator> Cal;
  if (Trace == 0)
    Cal.emplace();
  Bench B(*Def, Seed, Seconds);
  SampleMap Samples;
  std::vector<LedgerRecord> Ledger;
  if (Trace == 0)
    runEndToEnd(B, *Cal, Samples);
  else
    runLedger(B, Samples, Ledger);

  B.finishFlips();
  const std::string Stamp =
      stampJson(B, Commit, Cal ? normalizeToHostSpeed(*Cal, Samples) : "");
  if (!LedgerPath.empty() && Trace == 1)
    writeLedger(LedgerPath, Stamp, Ledger);
  std::printf("{\"stamp\": %s}\n", Stamp.c_str());
  if (Trace == 0)
    printResult(B, Samples, EndToEndMetrics, std::size(EndToEndMetrics));
  else
    printResult(B, Samples, PerLayerMetrics, std::size(PerLayerMetrics));
  return 0;
}
