//===- bench/chaos_storm.cpp - Randomized multi-fault soak harness --------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parent-survivability soak: seeded randomized multi-fault plans run
/// registry-wide for a bounded wall-clock budget, asserting the three
/// containment invariants the runtime promises its host process:
///
///   1. Every run terminates with a VALID outcome — Success whose output
///      matches the sequential reference, or Interrupted (a sigstorm plan
///      wound the run down gracefully). Never a crash, hang, or abort of
///      the parent.
///   2. Zero leaked children: after every run, /proc/self/task/<pid>/
///      children is empty — templates, residents, stage replicas, and cold
///      chunk children were all reaped, even mid-interrupt.
///   3. Zero leaked mappings: the /proc/self/maps line count returns to
///      its post-warm-up baseline (modulo allocator slack) — commit rings
///      are unmapped on every path, including pool-invalid downgrades.
///
/// Everything derives from --seed: plans, engine/transport picks, and
/// workload order replay identically, so a soak failure is reproducible by
/// rerunning with the printed seed. The final line is machine-checkable:
///
///   chaos_storm: seed=7 runs=N storms=F interrupted=K recovered=J
///       orphan_violations=0 map_growth=G wall_p50_ns=.. wall_p99_ns=..
///       verdict=OK
///
/// scripts/check.sh --chaos greps verdict=OK and re-asserts the zero
/// counters.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "runtime/CommitJournal.h"
#include "runtime/ShutdownSupervisor.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Timer.h"
#include "workloads/Workload.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace alter;
using namespace alter::bench;

namespace {

/// Live (unreaped) children of this process, per the kernel.
std::string liveChildren() {
  std::ifstream In("/proc/self/task/" + std::to_string(::getpid()) +
                   "/children");
  std::string Out((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  while (!Out.empty() && (Out.back() == ' ' || Out.back() == '\n'))
    Out.pop_back();
  return Out;
}

/// Number of lines in /proc/self/maps — one per mapping. A leaked commit
/// ring shows up as monotone growth across runs.
size_t mappingCount() {
  std::ifstream In("/proc/self/maps");
  size_t Lines = 0;
  std::string Line;
  while (std::getline(In, Line))
    ++Lines;
  return Lines;
}

/// The fault kinds a storm may arm. Stall is included with a short
/// stallms so a stalled child trips the deadline without eating the
/// budget; the three resource/shutdown kinds exercise this PR's
/// containment paths.
const FaultKind StormKinds[] = {
    FaultKind::ForkFail,     FaultKind::ChildCrash,
    FaultKind::ChildKill,    FaultKind::PipeTruncate,
    FaultKind::BitFlip,      FaultKind::Stall,
    FaultKind::TemplatePoison, FaultKind::QueueFlip,
    FaultKind::MmapFail,     FaultKind::PipeExhaust,
    FaultKind::SignalStorm,
};

/// Arms 1-4 random fault points. Returns a printable spec for diagnostics.
std::string armRandomPlan(SplitMix64 &Rng) {
  FaultPlan &Plan = FaultPlan::global();
  Plan.clear();
  Plan.setSeed(Rng.next());
  Plan.setStallNs(30'000'000); // 30 ms: trips deadlines, spares the budget
  std::string Spec;
  const unsigned NumFaults = 1 + static_cast<unsigned>(Rng.next() % 4);
  for (unsigned F = 0; F != NumFaults; ++F) {
    const FaultKind Kind =
        StormKinds[Rng.next() % (sizeof(StormKinds) / sizeof(StormKinds[0]))];
    const int64_t Target = static_cast<int64_t>(Rng.next() % 8);
    const bool Sticky = (Rng.next() & 1) != 0;
    Plan.arm(Kind, Target, Sticky);
    if (!Spec.empty())
      Spec += ',';
    Spec += std::string(faultKindName(Kind)) + "@" + std::to_string(Target) +
            (Sticky ? "!" : "");
  }
  return Spec;
}

struct Totals {
  uint64_t Runs = 0;
  uint64_t Storms = 0;
  uint64_t Interrupted = 0;
  uint64_t Recovered = 0;
  uint64_t OrphanViolations = 0;
  uint64_t OutputViolations = 0;
  uint64_t StatusViolations = 0;
};

//===----------------------------------------------------------------------===
// Crash-restart soak: parent SIGKILL + journal recovery
//===----------------------------------------------------------------------===

/// One scenario run inside a disposable child process (--crash-child).
/// The child computes its own sequential reference (setUp is
/// deterministic), re-seeds, runs the journaled configuration — the
/// journal and any armed parentkill fault arrive via the environment
/// (ALTER_JOURNAL / ALTER_JOURNAL_SYNC / ALTER_FAULTS) — and validates.
/// Exit codes: 0 validated, 2 bad status, 3 output mismatch, 4 usage.
int crashChildMain(const std::string &Name, unsigned Mode, unsigned Workers) {
  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (!W->paperAnnotation())
    return 4;
  const RuntimeParams Params = W->resolveAnnotation(*W->paperAnnotation());
  W->setUp(0);
  W->runSequential();
  const std::vector<double> Reference = W->outputSignature();
  W->setUp(0);
  RunResult R;
  if (Mode == 0)
    R = W->runRecovering(ParallelEngine::ForkJoin, Params, Workers);
  else if (Mode == 1)
    R = W->runRecovering(ParallelEngine::Pipeline, Params, Workers);
  else
    R = W->runScheduled(SchedulePolicy::Auto, Params, Workers);
  if (R.Status != RunStatus::Success) {
    std::fprintf(stderr, "crash-child: workload=%s status!=Success: %s\n",
                 Name.c_str(), R.Detail.c_str());
    return 2;
  }
  if (!W->validate(Reference)) {
    std::fprintf(stderr, "crash-child: workload=%s output mismatch "
                 "(replayed_chunks=%llu recovery_ns=%llu)\n",
                 Name.c_str(), (unsigned long long)R.Stats.ReplayedChunks,
                 (unsigned long long)R.Stats.RecoveryNs);
    return 3;
  }
  return 0;
}

/// Re-execs this binary as a --crash-child with the scenario's journal and
/// (optionally) a parentkill plan in its environment. Returns the child
/// pid, or -1 on fork failure.
pid_t spawnCrashChild(const std::string &Name, unsigned Mode,
                      unsigned Workers, const std::string &JournalPath,
                      const std::string &SyncSpec,
                      const std::string &FaultSpec) {
  const pid_t Pid = ::fork();
  if (Pid != 0)
    return Pid;
  ::setenv("ALTER_JOURNAL", JournalPath.c_str(), 1);
  ::setenv("ALTER_JOURNAL_SYNC", SyncSpec.c_str(), 1);
  if (FaultSpec.empty())
    ::unsetenv("ALTER_FAULTS");
  else
    ::setenv("ALTER_FAULTS", FaultSpec.c_str(), 1);
  const std::string Child = "--crash-child=" + Name;
  const std::string ModeArg = "--mode=" + std::to_string(Mode);
  const std::string WorkersArg = "--workers=" + std::to_string(Workers);
  char *Argv[] = {const_cast<char *>("chaos_storm"),
                  const_cast<char *>(Child.c_str()),
                  const_cast<char *>(ModeArg.c_str()),
                  const_cast<char *>(WorkersArg.c_str()), nullptr};
  ::execv("/proc/self/exe", Argv);
  ::_exit(127);
}

/// Reaps every child (including grandchildren adopted via
/// PR_SET_CHILD_SUBREAPER after a parent SIGKILL) until none remain or the
/// grace period expires. Returns the number still alive afterwards.
size_t reapAdopted(uint64_t GraceMs) {
  const uint64_t T0 = nowNs();
  for (;;) {
    const pid_t P = ::waitpid(-1, nullptr, WNOHANG);
    if (P > 0)
      continue;
    if (liveChildren().empty())
      return 0;
    if (nowNs() - T0 > GraceMs * 1'000'000ULL)
      break;
    ::usleep(2'000);
  }
  size_t Alive = 0;
  const std::string Orphans = liveChildren();
  for (char C : Orphans)
    if (C == ' ')
      ++Alive;
  return Orphans.empty() ? 0 : Alive + 1;
}

/// Files left in \p Dir (leaked journals) — "." and ".." excluded.
size_t countDirEntries(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  size_t Count = 0;
  while (const dirent *E = ::readdir(D))
    if (std::strcmp(E->d_name, ".") != 0 && std::strcmp(E->d_name, "..") != 0)
      ++Count;
  ::closedir(D);
  return Count;
}

/// The crash-restart soak (--crash-restart): for a bounded budget, pick a
/// seeded (workload, engine, workers, sync policy, kill point) scenario,
/// run it in a child that SIGKILLs *itself* — the journaled run's parent —
/// at a seeded dispatch/validate/commit/fsync point, then restart the
/// scenario fault-free against the surviving journal. The restarted child
/// must replay the committed prefix, resume, and validate against the
/// sequential reference. Asserts zero orphans and zero leaked journals.
int crashRestartMain(uint64_t Seed, uint64_t BudgetMs) {
  printHeader("chaos_storm --crash-restart",
              "parent-SIGKILL + journal-recovery soak: every restart must "
              "replay, resume, and match the sequential output");
  // Adopt (and reap) the grandchildren a SIGKILLed mid-parent leaves.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  std::vector<std::string> Names;
  for (const std::string &Name : allWorkloadNames())
    if (makeWorkload(Name)->paperAnnotation())
      Names.push_back(Name);

  const std::string Dir =
      "/tmp/alter_chaos_" + std::to_string(::getpid());
  ::mkdir(Dir.c_str(), 0700);
  static const char *Syncs[] = {"percommit", "batched", "batched:4:1", "off"};

  SplitMix64 Rng(Seed ^ 0xc3a5c85c97cb3127ULL);
  uint64_t Scenarios = 0, Kills = 0, Restarts = 0, Violations = 0,
           OrphanViolations = 0;
  const uint64_t T0 = nowNs();
  const uint64_t BudgetNs = BudgetMs * 1'000'000ULL;

  while (nowNs() - T0 < BudgetNs) {
    const std::string &Name = Names[Rng.next() % Names.size()];
    const unsigned Mode = static_cast<unsigned>(Rng.next() % 3);
    const unsigned Workers = 2 + static_cast<unsigned>(Rng.next() % 3);
    const std::string Sync = Syncs[Rng.next() % 4];
    const uint64_t KillPoint = Rng.next() % 32;
    const std::string Journal =
        Dir + "/j" + std::to_string(Scenarios) + ".alterj";
    const std::string FaultSpec = "parentkill@" +
                                  std::to_string(KillPoint) +
                                  ",seed=" + std::to_string(Rng.next());
    ++Scenarios;

    // First attempt: armed. Either it survives (kill point past the run's
    // last consulted point) and validates, or SIGKILL lands mid-run.
    pid_t Pid = spawnCrashChild(Name, Mode, Workers, Journal, Sync,
                                FaultSpec);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    bool NeedRestart = false;
    if (WIFSIGNALED(Status) && WTERMSIG(Status) == SIGKILL) {
      ++Kills;
      NeedRestart = true;
    } else if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      ++Violations;
      std::fprintf(stderr,
                   "VIOLATION first-run: workload=%s mode=%u sync=%s "
                   "kill@%llu status=0x%x\n",
                   Name.c_str(), Mode, Sync.c_str(),
                   (unsigned long long)KillPoint, Status);
    }
    // The SIGKILLed parent's own children are adopted here; reap them.
    if (reapAdopted(/*GraceMs=*/2000) != 0) {
      ++OrphanViolations;
      std::fprintf(stderr, "VIOLATION orphans: workload=%s pids=%s\n",
                   Name.c_str(), liveChildren().c_str());
    }

    if (NeedRestart) {
      // Restart fault-free against the surviving journal: must recover.
      ++Restarts;
      Pid = spawnCrashChild(Name, Mode, Workers, Journal, Sync, "");
      ::waitpid(Pid, &Status, 0);
      if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
        ++Violations;
        std::fprintf(stderr,
                     "VIOLATION restart: workload=%s mode=%u sync=%s "
                     "kill@%llu status=0x%x journal=%s\n",
                     Name.c_str(), Mode, Sync.c_str(),
                     (unsigned long long)KillPoint, Status, Journal.c_str());
      }
      if (reapAdopted(/*GraceMs=*/2000) != 0)
        ++OrphanViolations;
    }
    if (Violations == 0)
      ::unlink(Journal.c_str());
  }

  const size_t Leaked = Violations == 0 ? countDirEntries(Dir) : 0;
  if (Violations == 0 && Leaked == 0)
    ::rmdir(Dir.c_str());
  const bool Ok = Violations == 0 && OrphanViolations == 0 && Leaked == 0 &&
                  Scenarios > 0 && Kills > 0;
  std::printf("chaos_restart: seed=%llu scenarios=%llu kills=%llu "
              "restarts=%llu violations=%llu orphan_violations=%llu "
              "leaked_journals=%zu verdict=%s\n",
              (unsigned long long)Seed, (unsigned long long)Scenarios,
              (unsigned long long)Kills, (unsigned long long)Restarts,
              (unsigned long long)Violations,
              (unsigned long long)OrphanViolations, Leaked,
              Ok ? "OK" : "FAIL");
  return Ok ? 0 : 1;
}

/// Journal-overhead A/B (--journal-overhead): the same workload/engine
/// configuration, min-of-N wall time with the journal off vs attached
/// under the Batched policy. Each timed sample is a batch of back-to-back
/// runs (multi-invocation against one journal), so the comparison measures
/// the steady-state group-commit cost rather than a single short run whose
/// handful of fsyncs is at the mercy of one slow device flush — a
/// per-commit-fsync or serialization regression still shows up as a large
/// ratio. Prints "journal_overhead: ratio=R" for scripts/check.sh's gate.
int journalOverheadMain(uint64_t Reps) {
  printHeader("chaos_storm --journal-overhead",
              "min-of-N batched wall time, journal off vs Batched group commit");
  constexpr uint64_t RunsPerSample = 2;
  // A long-running workload: the group-commit cost is a fixed rate (one
  // blocking flush per BatchNs), so a multi-hundred-ms run measures the
  // steady-state ratio instead of amplifying one slow device flush
  // against a 20 ms loop.
  const std::vector<std::string> Names = allWorkloadNames();
  const std::string Name =
      std::find(Names.begin(), Names.end(), "floyd") != Names.end()
          ? "floyd"
          : Names.front();
  std::unique_ptr<Workload> W = makeWorkload(Name);
  const RuntimeParams Params = W->resolveAnnotation(*W->paperAnnotation());
  const std::string Path =
      "/tmp/alter_overhead_" + std::to_string(::getpid()) + ".alterj";

  uint64_t MinOff = UINT64_MAX, MinOn = UINT64_MAX, Fsyncs = 0;
  for (uint64_t Rep = 0; Rep != Reps; ++Rep) {
    uint64_t OffNs = 0;
    for (uint64_t I = 0; I != RunsPerSample; ++I) {
      W->setUp(0);
      const uint64_t A0 = nowNs();
      RunResult R = W->runRecovering(ParallelEngine::Pipeline, Params, 4);
      OffNs += nowNs() - A0;
      if (R.Status != RunStatus::Success)
        return 1;
    }
    MinOff = std::min(MinOff, OffNs);

    ::unlink(Path.c_str());
    JournalIdentity Id;
    Id.Workload = W->name();
    std::string Error;
    CommitJournal::Options Opts; // Batched default
    auto J = CommitJournal::open(Path, Id, Opts, &Error);
    if (!J) {
      std::fprintf(stderr, "journal open failed: %s\n", Error.c_str());
      return 1;
    }
    uint64_t OnNs = 0;
    for (uint64_t I = 0; I != RunsPerSample; ++I) {
      W->setUp(0);
      const uint64_t B0 = nowNs();
      RunResult R = W->runRecovering(ParallelEngine::Pipeline, Params, 4, 0,
                                     TxnLimits(), J.get());
      OnNs += nowNs() - B0;
      if (R.Status != RunStatus::Success)
        return 1;
      Fsyncs += R.Stats.JournalFsyncs;
    }
    MinOn = std::min(MinOn, OnNs);
    J.reset();
  }
  ::unlink(Path.c_str());
  const double Ratio =
      static_cast<double>(MinOn) / static_cast<double>(MinOff);
  std::printf("journal_overhead: workload=%s runs_per_sample=%llu "
              "fsyncs=%llu off_ns=%llu on_ns=%llu ratio=%.3f\n",
              Name.c_str(), (unsigned long long)RunsPerSample,
              (unsigned long long)Fsyncs, (unsigned long long)MinOff,
              (unsigned long long)MinOn, Ratio);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Seed = 1;
  uint64_t BudgetMs = 20'000;
  uint64_t Reps = 3;
  std::string CrashChild;
  unsigned Mode = 0, Workers = 2;
  bool CrashRestart = false, JournalOverhead = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--seed=", 7) == 0)
      Seed = std::strtoull(argv[I] + 7, nullptr, 10);
    else if (std::strncmp(argv[I], "--budget-ms=", 12) == 0)
      BudgetMs = std::strtoull(argv[I] + 12, nullptr, 10);
    else if (std::strncmp(argv[I], "--crash-child=", 14) == 0)
      CrashChild = argv[I] + 14;
    else if (std::strncmp(argv[I], "--mode=", 7) == 0)
      Mode = static_cast<unsigned>(std::strtoul(argv[I] + 7, nullptr, 10));
    else if (std::strncmp(argv[I], "--workers=", 10) == 0)
      Workers = static_cast<unsigned>(std::strtoul(argv[I] + 10, nullptr, 10));
    else if (std::strncmp(argv[I], "--reps=", 7) == 0)
      Reps = std::strtoull(argv[I] + 7, nullptr, 10);
    else if (std::strcmp(argv[I], "--crash-restart") == 0)
      CrashRestart = true;
    else if (std::strcmp(argv[I], "--journal-overhead") == 0)
      JournalOverhead = true;
  }
  if (!CrashChild.empty())
    return crashChildMain(CrashChild, Mode, Workers);
  if (CrashRestart)
    return crashRestartMain(Seed, BudgetMs);
  if (JournalOverhead)
    return journalOverheadMain(Reps);
  printHeader("chaos_storm",
              "randomized multi-fault soak: valid outcomes, zero orphans, "
              "zero leaked mappings");

  // References and warm-up: one sequential run per parallelizable
  // workload. This also lets lazily created arenas and allocator pools
  // settle before the mapping baseline is taken.
  std::vector<std::string> Names;
  std::map<std::string, std::vector<double>> References;
  for (const std::string &Name : allWorkloadNames()) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    if (!W->paperAnnotation())
      continue; // labyrinth: the paper could not parallelize it
    W->setUp(0);
    W->runSequential();
    References[Name] = W->outputSignature();
    Names.push_back(Name);
  }

  ensureShutdownSupervisorInstalled();
  SplitMix64 Rng(Seed ^ 0x57a6b5c4d3e2f1ULL);
  Totals T;
  // Per-run wall-clock distribution across the whole soak: the log-bucketed
  // histogram keeps exact count/min/max and bucket-resolution percentiles,
  // so the summary can report p50/p99 without storing every sample.
  LatencyHistogram WallHist;
  size_t BaselineMaps = 0;
  const uint64_t T0 = nowNs();
  const uint64_t BudgetNs = BudgetMs * 1'000'000ULL;

  while (nowNs() - T0 < BudgetNs) {
    const std::string &Name = Names[Rng.next() % Names.size()];
    std::unique_ptr<Workload> W = makeWorkload(Name);
    const RuntimeParams Params = W->resolveAnnotation(*W->paperAnnotation());
    const std::string PlanSpec = armRandomPlan(Rng);
    T.Storms += FaultPlan::global().pendingCount();

    const unsigned Mode = static_cast<unsigned>(Rng.next() % 3);
    const unsigned Workers = 2 + static_cast<unsigned>(Rng.next() % 3);
    W->setUp(0);
    RunResult R;
    const char *ModeName;
    if (Mode == 0) {
      ModeName = "forkjoin";
      R = W->runRecovering(ParallelEngine::ForkJoin, Params, Workers);
    } else if (Mode == 1) {
      ModeName = "pipeline";
      R = W->runRecovering(ParallelEngine::Pipeline, Params, Workers);
    } else {
      ModeName = "auto";
      R = W->runScheduled(SchedulePolicy::Auto, Params, Workers);
    }
    ++T.Runs;
    WallHist.record(R.Stats.RealTimeNs);
    FaultPlan::global().clear();

    // Invariant 1: a valid outcome. Interrupted is valid only because a
    // sigstorm (or a real signal) can land; anything else must succeed
    // and validate.
    if (R.Status == RunStatus::Interrupted) {
      ++T.Interrupted;
    } else if (R.Status != RunStatus::Success) {
      ++T.StatusViolations;
      std::fprintf(stderr,
                   "VIOLATION status: workload=%s mode=%s plan=%s -> %s\n",
                   Name.c_str(), ModeName, PlanSpec.c_str(),
                   R.Detail.c_str());
    } else {
      if (R.Stats.Recovered)
        ++T.Recovered;
      if (!W->validate(References[Name])) {
        ++T.OutputViolations;
        std::fprintf(stderr,
                     "VIOLATION output: workload=%s mode=%s plan=%s\n",
                     Name.c_str(), ModeName, PlanSpec.c_str());
      }
    }
    clearShutdownRequest();

    // Invariant 2: nothing orphaned.
    const std::string Orphans = liveChildren();
    if (!Orphans.empty()) {
      ++T.OrphanViolations;
      std::fprintf(stderr,
                   "VIOLATION orphans: workload=%s mode=%s plan=%s pids=%s\n",
                   Name.c_str(), ModeName, PlanSpec.c_str(), Orphans.c_str());
    }

    // Invariant 3 baseline: the first completed storm fixes the mapping
    // count every later run must return to (workload warm-up above has
    // already settled the allocator).
    if (BaselineMaps == 0)
      BaselineMaps = mappingCount();
  }

  // Mapping growth across the whole soak. A small slack absorbs libc
  // allocator arenas; a leaked per-run ring would dwarf it.
  const size_t FinalMaps = mappingCount();
  const size_t Growth = FinalMaps > BaselineMaps ? FinalMaps - BaselineMaps : 0;
  constexpr size_t MapSlack = 8;
  const bool MapsOk = Growth <= MapSlack;

  const bool Ok = MapsOk && T.OrphanViolations == 0 &&
                  T.OutputViolations == 0 && T.StatusViolations == 0 &&
                  T.Runs > 0;
  std::printf("chaos_storm: seed=%llu runs=%llu storms=%llu "
              "interrupted=%llu recovered=%llu orphan_violations=%llu "
              "output_violations=%llu status_violations=%llu "
              "map_growth=%zu wall_p50_ns=%llu wall_p99_ns=%llu "
              "verdict=%s\n",
              (unsigned long long)Seed, (unsigned long long)T.Runs,
              (unsigned long long)T.Storms, (unsigned long long)T.Interrupted,
              (unsigned long long)T.Recovered,
              (unsigned long long)T.OrphanViolations,
              (unsigned long long)T.OutputViolations,
              (unsigned long long)T.StatusViolations, Growth,
              (unsigned long long)WallHist.percentile(0.50),
              (unsigned long long)WallHist.percentile(0.99),
              Ok ? "OK" : "FAIL");
  return Ok ? 0 : 1;
}
