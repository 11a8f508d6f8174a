//===- bench/pipeline_vs_rounds.cpp - Pipelined vs round-barrier ----------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Head-to-head of the two process engines on a straggler-heavy loop:
/// every 8th chunk blocks for an extra latency window (standing in for the
/// page faults, I/O, or data-dependent tail work that make real chunk
/// durations skewed — and keeping the demo independent of host core
/// count). The round-barrier ForkJoinExecutor stalls every slot of a round
/// behind that straggler; the pipelined PipelineExecutor refills freed
/// slots immediately, so its worker occupancy stays high and the
/// stragglers' latency windows overlap with useful work (and each other)
/// instead of serializing round by round.
///
/// Chunks read and write disjoint contiguous slices, so the run also
/// showcases the wire-format compression (contiguous word keys collapse
/// to a few RLE runs).
///
/// With --fault the harness additionally measures each engine through the
/// graceful-degradation ladder driver under two fault regimes. The sticky
/// regime ("<engine>-fault" series) arms persistent faults at three chunks
/// (a child SIGKILL, a truncated commit pipe, and a bit-flipped report):
/// the engine's retries and the ladder's solo salvage both keep failing,
/// so exactly the three poisoned iterations are quarantined sequentially
/// while the rest of the tail stays parallel (recovered=true,
/// quarantined_iterations>0). The transient regime
/// ("<engine>-fault-salvage" series) arms three one-shot kills on one
/// chunk: the engine's own retry budget is exhausted, but the ladder's
/// tier-1 solo re-execution heals the chunk speculatively
/// (salvaged_chunks>0, recovered=false — no sequential iterations at
/// all). Both regimes must still reproduce the exact sequential output.
///
/// The transport A/B section reruns the loop in a small-chunk regime
/// (many chunks, little work per chunk, no latency windows) where
/// per-chunk process setup and commit copies — not speculation — dominate,
/// once per TransportKind: the legacy cold-fork+pipe path against the warm
/// worker pool with shared-memory commit rings. The JSON report carries
/// `transport`, `warm_forks`, `cold_forks`, `template_refreshes`, and
/// `wire_bytes_copied` for every row so pool hit-rate regressions are
/// visible, not just wall clock.
///
/// With --trace <file> the pipelined run at the highest processor count is
/// traced at TraceLevel::Events and exported as Chrome trace-event JSON
/// (one track per worker slot), with the conflict-attribution summary on
/// stdout. The loop is conflict-free by construction, so --contend adds a
/// shared read-modify-write cell (labeled "straggler.shared") that every
/// chunk touches, giving the attribution report a real granule to rank.
/// --profile and --metrics-json <file> reuse the same representative run
/// for the critical-path phase profile and the metrics report;
/// --profile-engine=<forkjoin|pipeline|threaded> picks which engine's
/// highest-P run is the representative (pipeline by default). The threaded
/// representative is an extra LockstepExecutor run of the same loop at the
/// highest P, outside the sweep and its JSON records.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "runtime/ForkJoinExecutor.h"
#include "runtime/LockstepExecutor.h"
#include "runtime/LoopRunner.h"
#include "runtime/PipelineExecutor.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Trace.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

using namespace alter;
using namespace alter::bench;

namespace {

/// Where the chunk-duration skew comes from (the straggler placement).
enum class SkewMode {
  Periodic,  ///< every 8th chunk blocks for the latency window
  Bimodal,   ///< ~25% of chunks block, at hash-random positions — several
             ///< stragglers can land in the same round-barrier round
  HeavyTail, ///< no blocking at all: every chunk draws a Pareto-ish
             ///< compute multiplier (most cheap, a few 8x/32x)
};

/// Deterministic per-chunk hash (splitmix64) so the skew placement is
/// reproducible across engines and matches the sequential reference.
uint64_t chunkMix(int64_t Chunk) {
  uint64_t Z = static_cast<uint64_t>(Chunk) + 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

struct StragglerLoop {
  int64_t NumChunks;
  size_t SliceDoubles;
  int WorkPerElement;
  uint64_t StragglerNs;
  SkewMode Skew = SkewMode::Periodic;
  /// --contend: every chunk read-modify-writes Shared, making it the one
  /// conflicting granule for the attribution report. It stays out of the
  /// validated Out array, so the memcmp against the sequential reference is
  /// unaffected by retry-order nondeterminism.
  bool Contend = false;
  /// Transport A/B regime: every chunk additionally range-reads this many
  /// doubles from a shared read-only window (a lookup table shared by all
  /// iterations — the read-mostly/small-write shape). The reads never
  /// conflict, but each commit then ships and validates a large read set,
  /// which is exactly the parent-side work the warm pool overlaps with the
  /// template's forking and the cold-fork path serializes behind fork().
  size_t ReadWindowDoubles = 0;

  std::vector<double> In;
  std::vector<double> Out;
  std::vector<double> Window;
  double Shared = 0.0;

  void reset() {
    In.assign(static_cast<size_t>(NumChunks) * SliceDoubles, 0.0);
    Out.assign(In.size(), 0.0);
    for (size_t I = 0; I != In.size(); ++I)
      In[I] = 1.0 + static_cast<double>(I % 97);
    Shared = 0.0;
    Window.assign(ReadWindowDoubles, 0.0);
    for (size_t I = 0; I != Window.size(); ++I)
      Window[I] = static_cast<double>(I % 13);
    traceLabelRegion(In.data(), In.size() * sizeof(double), "straggler.in");
    traceLabelRegion(Out.data(), Out.size() * sizeof(double),
                     "straggler.out");
    traceLabelRegion(&Shared, sizeof(Shared), "straggler.shared");
  }

  bool isStraggler(int64_t Chunk) const {
    switch (Skew) {
    case SkewMode::Periodic:
      return Chunk % 8 == 0;
    case SkewMode::Bimodal:
      return chunkMix(Chunk) % 8 < 2;
    case SkewMode::HeavyTail:
      return false;
    }
    return false;
  }

  /// Per-chunk compute rounds: constant except under HeavyTail, where the
  /// hash draws a discrete Pareto-ish multiplier (2% of chunks 32x, 8%
  /// 8x, the rest 1x — mean ~2.2x, tail far beyond it).
  int workFor(int64_t Chunk) const {
    if (Skew != SkewMode::HeavyTail)
      return WorkPerElement;
    const uint64_t H = chunkMix(Chunk) % 1000;
    const int Mult = H < 20 ? 32 : H < 100 ? 8 : 1;
    return WorkPerElement * Mult;
  }

  LoopSpec spec() {
    LoopSpec Spec;
    Spec.NumIterations = NumChunks;
    Spec.Body = [this](TxnContext &Ctx, int64_t C) {
      if (!Window.empty()) {
        // The shared lookup window: range-instrumented, so the child's
        // tracking stays cheap but the commit record carries the full
        // read set for the parent to decode and validate.
        thread_local std::vector<double> Scratch;
        Scratch.resize(Window.size());
        Ctx.readRange(Window.data(), Window.size(), Scratch.data());
      }
      const size_t Base = static_cast<size_t>(C) * SliceDoubles;
      const int Rounds = workFor(C);
      for (size_t I = 0; I != SliceDoubles; ++I) {
        double V = Ctx.load(&In[Base + I]);
        for (int R = 0; R != Rounds; ++R)
          V = std::sqrt(V * V + 1.0);
        Ctx.store(&Out[Base + I], V);
      }
      if (Contend)
        Ctx.store(&Shared, Ctx.load(&Shared) + 1.0);
      if (isStraggler(C)) {
        // The straggler's latency window: blocked, not burning CPU.
        timespec Ts;
        Ts.tv_sec = static_cast<time_t>(StragglerNs / 1000000000ULL);
        Ts.tv_nsec = static_cast<long>(StragglerNs % 1000000000ULL);
        while (::nanosleep(&Ts, &Ts) != 0 && errno == EINTR)
          ;
      }
    };
    return Spec;
  }

  /// The loop's exact sequential result, for validating both engines.
  std::vector<double> reference() const {
    std::vector<double> Ref(In.size());
    for (int64_t C = 0; C != NumChunks; ++C) {
      const size_t Base = static_cast<size_t>(C) * SliceDoubles;
      const int Rounds = workFor(C);
      for (size_t I = 0; I != SliceDoubles; ++I) {
        double V = In[Base + I];
        for (int R = 0; R != Rounds; ++R)
          V = std::sqrt(V * V + 1.0);
        Ref[Base + I] = V;
      }
    }
    return Ref;
  }
};

SweepPoint measure(StragglerLoop &Loop, Executor &Exec, unsigned P,
                   TransportKind Transport, const std::vector<double> &Ref,
                   RunResult *TraceOut = nullptr) {
  Loop.reset();
  LoopSpec Spec = Loop.spec();
  RunResult R = Exec.run(Spec);
  // Reap the warm pool's last template generation now, so the point's
  // child CPU covers the whole warm lineage.
  R.Stats.addChildUsage(Exec.release());
  if (R.Status != RunStatus::Success)
    fatalError(std::string("straggler loop failed: ") +
               runStatusName(R.Status));
  if (std::memcmp(Loop.Out.data(), Ref.data(),
                  Ref.size() * sizeof(double)) != 0)
    fatalError("straggler loop produced wrong output");
  if (TraceOut)
    *TraceOut = R;
  SweepPoint Point;
  Point.NumWorkers = P;
  Point.Schedule = scheduleKindName(R.ScheduleUsed);
  Point.Status = R.Status;
  Point.ChunkFactorUsed = R.ChunkFactorUsed;
  Point.Stats = R.Stats;
  Point.Transport = transportKindName(Transport);
  return Point;
}

/// Measures \p Engine through the graceful-degradation ladder driver.
/// When \p Transient is false, persistent faults are armed at three
/// chunks: the engine's retries and the ladder's solo salvage both keep
/// failing, so the ladder quarantines exactly the poisoned iterations
/// (the loop runs at chunk factor 1, so bisection is already at
/// single-iteration width) and the rest of the tail re-runs in parallel.
/// When \p Transient is true, three one-shot kills are armed on one
/// chunk: they exhaust the engine's per-chunk retry budget, but the
/// ladder's tier-1 solo re-execution then heals the chunk speculatively —
/// no iteration runs sequentially.
SweepPoint measureRecovering(StragglerLoop &Loop, ParallelEngine Engine,
                             const ExecutorConfig &Config, unsigned P,
                             const std::vector<double> &Ref, bool Transient) {
  Loop.reset();
  FaultPlan::global().clear();
  if (Transient) {
    FaultPlan::global().arm(FaultKind::ChildKill, 1);
    FaultPlan::global().arm(FaultKind::ChildKill, 1);
    FaultPlan::global().arm(FaultKind::ChildKill, 1);
  } else {
    FaultPlan::global().arm(FaultKind::ChildKill, 1, /*Sticky=*/true);
    FaultPlan::global().arm(FaultKind::PipeTruncate, 3, /*Sticky=*/true);
    FaultPlan::global().arm(FaultKind::BitFlip, 5, /*Sticky=*/true);
  }
  LoopSpec Spec = Loop.spec();
  RecoveringLoopRunner Runner(Engine, Config);
  Runner.runInner(Spec);
  Runner.release();
  FaultPlan::global().clear();
  const RunResult &R = Runner.result();
  if (R.Status != RunStatus::Success)
    fatalError(std::string("recovering straggler loop failed: ") +
               runStatusName(R.Status));
  if (Transient) {
    if (R.Stats.SalvagedChunks == 0)
      fatalError("transient faults were not healed by tier-1 salvage");
    if (R.Stats.Recovered)
      fatalError("transient faults must not demand sequential execution");
  } else {
    if (!R.Stats.Recovered || R.Stats.QuarantinedIterations == 0)
      fatalError("sticky faults did not reach quarantine");
  }
  if (std::memcmp(Loop.Out.data(), Ref.data(),
                  Ref.size() * sizeof(double)) != 0)
    fatalError("recovered straggler loop produced wrong output");
  SweepPoint Point;
  Point.NumWorkers = P;
  Point.Schedule = scheduleKindName(R.ScheduleUsed);
  Point.Status = R.Status;
  Point.ChunkFactorUsed = R.ChunkFactorUsed;
  Point.Stats = R.Stats;
  Point.Transport = transportKindName(Config.Transport);
  return Point;
}

} // namespace

int main(int argc, char **argv) {
  initBenchArgs(argc, argv);
  bool Quick = false;
  bool Fault = false;
  bool Contend = false;
  // Which engine's highest-P straggler run is kept as the representative
  // for --trace / --profile / --metrics-json.
  std::string ProfileEngine = "pipeline";
  for (int I = 1; I != argc; ++I) {
    const std::string Arg = argv[I];
    if (Arg == "--quick")
      Quick = true;
    if (Arg == "--fault")
      Fault = true;
    if (Arg == "--contend")
      Contend = true;
    if (Arg.rfind("--profile-engine=", 0) == 0) {
      ProfileEngine = Arg.substr(17);
      if (ProfileEngine != "forkjoin" && ProfileEngine != "pipeline" &&
          ProfileEngine != "threaded")
        fatalError("--profile-engine must be 'forkjoin', 'pipeline' or "
                   "'threaded', got '" + ProfileEngine + "'");
    }
  }

  printHeader("pipeline vs rounds",
              "round-barrier vs pipelined engine on a straggler-heavy loop");

  StragglerLoop Loop;
  Loop.NumChunks = Quick ? 24 : 64;
  Loop.SliceDoubles = 256;
  Loop.WorkPerElement = 200;
  Loop.StragglerNs = Quick ? 40000000ULL : 150000000ULL; // 40ms / 150ms
  Loop.Contend = Contend;
  Loop.reset();
  const std::vector<double> Ref = Loop.reference();

  RuntimeParams Params;
  Params.Conflict = ConflictPolicy::RAW;
  Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Params.ChunkFactor = 1;

  TextTable Table({"procs", "engine", "wall ms", "occupancy", "stall ms",
                   "wire/raw", "ladder"});
  const std::vector<unsigned> Procs = Quick ? std::vector<unsigned>{4}
                                            : std::vector<unsigned>{2, 4, 8};
  double WallFj4 = 0.0, WallPipe4 = 0.0, Occ4Fj = 0.0, Occ4Pipe = 0.0;
  SweepPoint FaultFj4, FaultPipe4, SalvageFj4, SalvagePipe4;
  // Per-tier outcome: salvaged chunks / bisection rounds / quarantined
  // iterations / full-tail recovered iterations.
  auto ladderCell = [](const RunStats &S) {
    if (!S.Recovered && S.SalvagedChunks == 0)
      return std::string("-");
    return strprintf("s=%llu b=%llu q=%llu r=%llu",
                     static_cast<unsigned long long>(S.SalvagedChunks),
                     static_cast<unsigned long long>(S.BisectionRounds),
                     static_cast<unsigned long long>(S.QuarantinedIterations),
                     static_cast<unsigned long long>(S.RecoveredIterations));
  };
  auto addRow = [&](unsigned P, const char *Series, const SweepPoint &Pt) {
    const RunStats &S = Pt.Stats;
    Table.addRow({strprintf("%u", P), Series,
                  strprintf("%.2f", S.RealTimeNs / 1e6),
                  strprintf("%.1f%%", 100.0 * S.occupancy()),
                  strprintf("%.2f", S.stragglerStallNs() / 1e6),
                  strprintf("%.3f", S.wireCompressionRatio()),
                  ladderCell(S)});
    jsonAddPoint("pipeline_vs_rounds", Series, Pt);
  };
  RunResult Traced;
  const bool KeepRepresentative =
      traceRequested() || profileRequested() || metricsRequested();
  for (unsigned P : Procs) {
    ExecutorConfig Config;
    Config.NumWorkers = P;
    Config.Params = Params;

    ForkJoinExecutor Rounds(Config);
    // Procs ascends, so the kept representative is the highest-P run of
    // the --profile-engine engine (pipeline unless overridden).
    const SweepPoint Fj = measure(
        Loop, Rounds, P, Config.Transport, Ref,
        KeepRepresentative && ProfileEngine == "forkjoin" ? &Traced : nullptr);
    addRow(P, "forkjoin", Fj);
    PipelineExecutor Pipe(Config);
    const SweepPoint Pl = measure(
        Loop, Pipe, P, Config.Transport, Ref,
        KeepRepresentative && ProfileEngine == "pipeline" ? &Traced : nullptr);
    addRow(P, "pipeline", Pl);

    if (P == 4) {
      WallFj4 = Fj.Stats.RealTimeNs / 1e6;
      WallPipe4 = Pl.Stats.RealTimeNs / 1e6;
      Occ4Fj = Fj.Stats.occupancy();
      Occ4Pipe = Pl.Stats.occupancy();
    }

    if (Fault) {
      const SweepPoint FFj = measureRecovering(
          Loop, ParallelEngine::ForkJoin, Config, P, Ref, /*Transient=*/false);
      addRow(P, "forkjoin-fault", FFj);
      const SweepPoint FPl = measureRecovering(
          Loop, ParallelEngine::Pipeline, Config, P, Ref, /*Transient=*/false);
      addRow(P, "pipeline-fault", FPl);
      const SweepPoint SFj = measureRecovering(
          Loop, ParallelEngine::ForkJoin, Config, P, Ref, /*Transient=*/true);
      addRow(P, "forkjoin-fault-salvage", SFj);
      const SweepPoint SPl = measureRecovering(
          Loop, ParallelEngine::Pipeline, Config, P, Ref, /*Transient=*/true);
      addRow(P, "pipeline-fault-salvage", SPl);
      if (P == 4) {
        FaultFj4 = FFj;
        FaultPipe4 = FPl;
        SalvageFj4 = SFj;
        SalvagePipe4 = SPl;
      }
    }
  }
  if (KeepRepresentative && ProfileEngine == "threaded") {
    ExecutorConfig Config;
    Config.NumWorkers = Procs.back();
    Config.Params = Params;
    LockstepExecutor Threads(Config);
    measure(Loop, Threads, Procs.back(), Config.Transport, Ref, &Traced);
  }
  Table.printText();
  if (WallFj4 > 0.0)
    std::printf("\nat 4 workers: pipeline %.2fms vs rounds %.2fms "
                "(%.2fx), occupancy %.1f%% vs %.1f%%\n",
                WallPipe4, WallFj4, WallFj4 / (WallPipe4 > 0 ? WallPipe4 : 1),
                100.0 * Occ4Pipe, 100.0 * Occ4Fj);
  if (Fault && FaultFj4.Stats.RealTimeNs > 0) {
    std::printf("with sticky faults (quarantine): rounds %.2fms "
                "(clean %.2fms, %llu iters quarantined), pipeline %.2fms "
                "(clean %.2fms, %llu iters quarantined)\n",
                FaultFj4.Stats.RealTimeNs / 1e6, WallFj4,
                static_cast<unsigned long long>(
                    FaultFj4.Stats.QuarantinedIterations),
                FaultPipe4.Stats.RealTimeNs / 1e6, WallPipe4,
                static_cast<unsigned long long>(
                    FaultPipe4.Stats.QuarantinedIterations));
    std::printf("with transient faults (tier-1 salvage): rounds %.2fms "
                "(%llu chunks salvaged), pipeline %.2fms (%llu chunks "
                "salvaged); no sequential iterations in either\n",
                SalvageFj4.Stats.RealTimeNs / 1e6,
                static_cast<unsigned long long>(SalvageFj4.Stats.SalvagedChunks),
                SalvagePipe4.Stats.RealTimeNs / 1e6,
                static_cast<unsigned long long>(
                    SalvagePipe4.Stats.SalvagedChunks));
  }
  // Iteration-skew regimes beyond the periodic straggler. Bimodal keeps
  // the same latency window but places it at hash-random chunks, so
  // several stragglers can land in one round-barrier round (the rounds
  // engine then pays max, not sum — its best case — while the pipeline is
  // indifferent to placement). Heavy-tail sleeps never: every chunk draws
  // a Pareto-ish compute multiplier, the skew that data-dependent work
  // (hub vertices, long duplicate chains) produces in the paper's
  // workloads.
  std::printf("\niteration-skew regimes at 4 workers:\n");
  TextTable SkewTable(
      {"skew", "engine", "wall ms", "occupancy", "stall ms"});
  for (const auto &[Mode, ModeName] :
       {std::pair<SkewMode, const char *>{SkewMode::Bimodal, "bimodal"},
        std::pair<SkewMode, const char *>{SkewMode::HeavyTail,
                                          "heavy-tail"}}) {
    StragglerLoop Skewed;
    Skewed.NumChunks = Loop.NumChunks;
    Skewed.SliceDoubles = Loop.SliceDoubles;
    Skewed.WorkPerElement = Loop.WorkPerElement;
    // Bimodal doubles the straggler fraction (~25% vs every 8th), so
    // halve the window to keep total sleep comparable to the periodic
    // run; heavy-tail never sleeps and ignores the value.
    Skewed.StragglerNs = Loop.StragglerNs / 2;
    Skewed.Skew = Mode;
    Skewed.reset();
    const std::vector<double> SkewRef = Skewed.reference();
    ExecutorConfig Config;
    Config.NumWorkers = 4;
    Config.Params = Params;
    for (const char *Engine : {"forkjoin", "pipeline"}) {
      SweepPoint Pt;
      if (std::string(Engine) == "forkjoin") {
        ForkJoinExecutor Exec(Config);
        Pt = measure(Skewed, Exec, 4, Config.Transport, SkewRef);
      } else {
        PipelineExecutor Exec(Config);
        Pt = measure(Skewed, Exec, 4, Config.Transport, SkewRef);
      }
      const RunStats &S = Pt.Stats;
      SkewTable.addRow({ModeName, Engine,
                        strprintf("%.2f", S.RealTimeNs / 1e6),
                        strprintf("%.1f%%", 100.0 * S.occupancy()),
                        strprintf("%.2f", S.stragglerStallNs() / 1e6)});
      jsonAddPoint("pipeline_vs_rounds",
                   std::string(Engine) + "-" + ModeName, Pt);
    }
  }
  SkewTable.printText();

  // Transport A/B in the small-chunk regime: many chunks, a few hundred ns
  // of work each, no latency windows — so per-chunk fork()+pipe transport,
  // not speculation, is what the wall clock measures. This is where the
  // warm pool has to earn its keep: >90% warm forks and ~0 wire bytes
  // copied, and a faster wall clock than the cold-fork+pipe path at P=4.
  StragglerLoop Small;
  Small.NumChunks = Quick ? 128 : 256;
  Small.SliceDoubles = 16;
  Small.WorkPerElement = 4;
  Small.StragglerNs = 0;
  Small.ReadWindowDoubles = 1024; // 8 KiB shared lookup table
  Small.reset();
  const std::vector<double> SmallRef = Small.reference();

  std::printf("\ntransport A/B, small-chunk regime (%lld chunks x %zu "
              "doubles, no straggler windows):\n",
              static_cast<long long>(Small.NumChunks), Small.SliceDoubles);
  TextTable SmallTable({"procs", "engine", "transport", "wall ms",
                        "warm forks", "reuses", "cold forks", "refreshes",
                        "copied KiB"});
  double SmallPipe4 = 0.0, SmallRing4 = 0.0, RingWarmRate4 = 0.0;
  uint64_t RingCopied4 = 0, PipeCopied4 = 0, RingReuses4 = 0;
  for (unsigned P : Procs) {
    for (TransportKind T : {TransportKind::Pipe, TransportKind::Ring}) {
      ExecutorConfig Config;
      Config.NumWorkers = P;
      Config.Params = Params;
      Config.Transport = T;
      for (const char *Engine : {"forkjoin", "pipeline"}) {
        SweepPoint Pt;
        if (std::string(Engine) == "forkjoin") {
          ForkJoinExecutor Exec(Config);
          Pt = measure(Small, Exec, P, T, SmallRef);
        } else {
          PipelineExecutor Exec(Config);
          Pt = measure(Small, Exec, P, T, SmallRef);
        }
        const RunStats &S = Pt.Stats;
        SmallTable.addRow(
            {strprintf("%u", P), Engine, transportKindName(T),
             strprintf("%.2f", S.RealTimeNs / 1e6),
             strprintf("%llu", static_cast<unsigned long long>(S.WarmForks)),
             strprintf("%llu",
                       static_cast<unsigned long long>(S.ChildReuses)),
             strprintf("%llu", static_cast<unsigned long long>(S.ColdForks)),
             strprintf("%llu",
                       static_cast<unsigned long long>(S.TemplateRefreshes)),
             strprintf("%.1f", S.WireBytesCopied / 1024.0)});
        jsonAddPoint("pipeline_vs_rounds",
                     std::string(Engine) + "-small-" + transportKindName(T),
                     Pt);
        if (P == 4 && std::string(Engine) == "pipeline") {
          if (T == TransportKind::Ring) {
            SmallRing4 = S.RealTimeNs / 1e6;
            RingWarmRate4 = S.warmForkRate();
            RingCopied4 = S.WireBytesCopied;
            RingReuses4 = S.ChildReuses;
          } else {
            SmallPipe4 = S.RealTimeNs / 1e6;
            PipeCopied4 = S.WireBytesCopied;
          }
        }
      }
    }
  }
  SmallTable.printText();
  if (SmallPipe4 > 0.0)
    std::printf("\nat 4 workers (pipeline, small chunks): ring %.2fms vs "
                "pipe %.2fms (%.2fx), warm-fork rate %.1f%%, %llu fork-free "
                "redispatches, wire bytes copied %llu vs %llu\n",
                SmallRing4, SmallPipe4,
                SmallPipe4 / (SmallRing4 > 0 ? SmallRing4 : 1),
                100.0 * RingWarmRate4,
                static_cast<unsigned long long>(RingReuses4),
                static_cast<unsigned long long>(RingCopied4),
                static_cast<unsigned long long>(PipeCopied4));

  maybeWriteTraceReport(Traced);
  maybeWriteMetricsReport(Traced);
  finalizeBenchJson();
  return 0;
}
