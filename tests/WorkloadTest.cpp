//===- tests/WorkloadTest.cpp - Tests for the 12 paper benchmarks ---------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises every Table 2 workload: sequential determinism, dependence
/// probing (Table 3's Dep column), validity of the paper's annotation under
/// the lock-step engine, and the workload-specific semantic claims the
/// paper makes (convergence growth under StaleReads, reduction necessity,
/// read-set explosions, ...).
///
//===----------------------------------------------------------------------===//

#include "PropertyTest.h"

#include "runtime/CommitJournal.h"
#include "runtime/ShutdownSupervisor.h"
#include "support/FaultInjection.h"
#include "workloads/AggloClust.h"
#include "workloads/BarnesHut.h"
#include "workloads/GaussSeidel.h"
#include "workloads/Genome.h"
#include "workloads/Kmeans.h"
#include "workloads/Labyrinth.h"
#include "workloads/Sg3d.h"
#include "workloads/Ssca2.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>

using namespace alter;

namespace {

/// Expected Dep column per workload (paper Table 3).
bool paperSaysLoopCarried(const std::string &Name) {
  for (const PaperTable3Row &Row : paperTable3())
    if (Name == Row.Name)
      return std::string(Row.Dep) == "Yes";
  ADD_FAILURE() << "workload missing from paper table: " << Name;
  return false;
}

bool everyWorkload(const std::string &) { return true; }

/// Every workload but Labyrinth, for which the paper found no annotation.
bool hasPaperAnnotation(const std::string &Name) {
  return makeWorkload(Name)->paperAnnotation().has_value();
}

class AllWorkloads : public PropertyTest<std::string> {
public:
  static constexpr const char *Suite = "Paper/AllWorkloads";
  static std::vector<std::string> grid() { return allWorkloadNames(); }
  static std::string name(const std::string &Name) { return Name; }
};

/// Threads of this process (entries of /proc/self/task).
size_t threadsOfSelf() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator()));
}

} // namespace

ALTER_PROPERTY(AllWorkloads, MetadataIsComplete, everyWorkload) {
  auto W = makeWorkload(GetParam());
  EXPECT_EQ(W->name(), GetParam());
  EXPECT_FALSE(W->description().empty());
  EXPECT_FALSE(W->suite().empty());
  ASSERT_GE(W->numInputs(), 1u);
  for (size_t I = 0; I != W->numInputs(); ++I)
    EXPECT_FALSE(W->inputName(I).empty());
  EXPECT_GT(W->defaultChunkFactor(), 0);
}

ALTER_PROPERTY(AllWorkloads, SequentialRunsAreDeterministic, everyWorkload) {
  auto W = makeWorkload(GetParam());
  W->setUp(0);
  ASSERT_TRUE(W->runSequential().succeeded());
  const std::vector<double> First = W->outputSignature();
  EXPECT_TRUE(W->validate(First)) << "self-validation must pass";

  W->setUp(0);
  ASSERT_TRUE(W->runSequential().succeeded());
  EXPECT_EQ(W->outputSignature(), First)
      << "setUp + sequential run must be bit-reproducible";
}

ALTER_PROPERTY(AllWorkloads, DependenceProbeMatchesPaper, everyWorkload) {
  auto W = makeWorkload(GetParam());
  W->setUp(0);
  const DependenceReport Report = W->probeDependences();
  EXPECT_EQ(Report.AnyLoopCarried, paperSaysLoopCarried(GetParam()))
      << "Table 3 Dep column mismatch for " << GetParam();
}

ALTER_PROPERTY(AllWorkloads, PaperAnnotationValidatesUnderLockstep,
               hasPaperAnnotation) {
  auto W = makeWorkload(GetParam());
  const std::optional<Annotation> A = W->paperAnnotation();
  ASSERT_TRUE(A.has_value());

  W->setUp(0);
  ASSERT_TRUE(W->runSequential().succeeded());
  const std::vector<double> Reference = W->outputSignature();

  W->setUp(0);
  const RunResult R = W->runLockstep(W->resolveAnnotation(*A),
                                     /*NumWorkers=*/4);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_TRUE(W->validate(Reference))
      << "output under " << A->str() << " failed validation";
}

ALTER_PROPERTY(AllWorkloads, PaperAnnotationIsDeterministicAcrossRuns,
               hasPaperAnnotation) {
  auto W = makeWorkload(GetParam());
  const std::optional<Annotation> A = W->paperAnnotation();
  ASSERT_TRUE(A.has_value());

  std::vector<double> First;
  uint64_t FirstRetries = 0;
  for (int Trial = 0; Trial != 2; ++Trial) {
    W->setUp(0);
    const RunResult R =
        W->runLockstep(W->resolveAnnotation(*A), /*NumWorkers=*/4);
    ASSERT_TRUE(R.succeeded()) << R.Detail;
    if (Trial == 0) {
      First = W->outputSignature();
      FirstRetries = R.Stats.NumRetries;
      continue;
    }
    EXPECT_EQ(W->outputSignature(), First)
        << "parallel execution must be deterministic (§4.3)";
    EXPECT_EQ(R.Stats.NumRetries, FirstRetries)
        << "the same conflicts must be detected on every run (§4.3)";
  }
}

//===----------------------------------------------------------------------===
// Workload-specific semantic claims
//===----------------------------------------------------------------------===

TEST(GaussSeidelTest, StaleReadsCostsAtMostAFewExtraSweeps) {
  for (bool Sparse : {false, true}) {
    GaussSeidelWorkload W(Sparse);
    W.setUp(0);
    ASSERT_TRUE(W.runSequential().succeeded());
    const int SeqTrips = W.tripCount();
    ASSERT_TRUE(W.converged());

    W.setUp(0);
    const RunResult R = W.runLockstep(
        W.resolveAnnotation(*W.paperAnnotation()), /*NumWorkers=*/4);
    ASSERT_TRUE(R.succeeded()) << R.Detail;
    ASSERT_TRUE(W.converged());
    const int StaleTrips = W.tripCount();
    // Paper §7.2: 16 -> 17 (dense) and 20 -> 21 (sparse): a small, not
    // multiplicative, increase. Our vectors are ~20x smaller than the
    // paper's, so a larger fraction of each round's reads is stale and a
    // few more extra sweeps are expected — but never a blow-up.
    EXPECT_GE(StaleTrips, SeqTrips);
    EXPECT_LE(StaleTrips, SeqTrips + SeqTrips / 2 + 2)
        << (Sparse ? "sparse" : "dense")
        << ": stale reads should barely slow convergence";
    EXPECT_EQ(R.Stats.NumRetries, 0u)
        << "GS writes are disjoint: no WAW conflicts (paper §7.2)";
  }
}

TEST(GaussSeidelTest, ReadTrackingPoliciesFailTheDeadline) {
  GaussSeidelWorkload W(/*Sparse=*/false);
  W.setUp(0);
  const RunResult Seq = W.runSequential();
  ASSERT_TRUE(Seq.succeeded());

  W.setUp(0);
  const RunResult R =
      W.runLockstep(paramsForSequentialSpeculation(W.defaultChunkFactor()),
                    /*NumWorkers=*/4, /*SeqBaselineNs=*/Seq.Stats.RealTimeNs);
  // Table 3: GSdense fails under TLS. On the paper's testbed the failure
  // surfaced as the 10x timeout; depending on where instrumentation
  // overhead lands relative to the deadline it can equally surface as high
  // conflicts (> 50% failed commits) — both are failures in the §5
  // classification, which is what matters.
  EXPECT_TRUE(!R.succeeded() || R.Stats.retryRate() > 0.5)
      << "TLS on GSdense must fail the inference classification";
}

TEST(GenomeTest, UniqueSetSurvivesConflicts) {
  GenomeWorkload W;
  W.setUp(0);
  ASSERT_TRUE(W.runSequential().succeeded());
  const std::vector<double> Reference = W.outputSignature();
  const uint64_t SeqUnique = W.uniqueCount();
  EXPECT_GT(SeqUnique, 0u);

  // StaleReads: bucket-head WAW conflicts retry and re-probe; the final
  // set must be exact.
  W.setUp(0);
  const RunResult R = W.runLockstep(
      W.resolveAnnotation(*W.paperAnnotation()), /*NumWorkers=*/4);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_TRUE(W.validate(Reference));
  EXPECT_EQ(W.uniqueCount(), SeqUnique);
}

TEST(Ssca2Test, NonePolicyLosesUpdates) {
  Ssca2Workload W;
  W.setUp(0);
  ASSERT_TRUE(W.runSequential().succeeded());
  const std::vector<double> Reference = W.outputSignature();

  W.setUp(0);
  const RunResult R = W.runLockstep(
      paramsForDoall({}, W.defaultChunkFactor()), /*NumWorkers=*/4);
  ASSERT_TRUE(R.succeeded());
  EXPECT_FALSE(W.validate(Reference))
      << "DOALL must lose fill-cursor updates on hub vertices";
}

TEST(Ssca2Test, WawPolicyIsExact) {
  Ssca2Workload W;
  W.setUp(0);
  ASSERT_TRUE(W.runSequential().succeeded());
  const std::vector<double> Reference = W.outputSignature();

  W.setUp(0);
  const RunResult R = W.runLockstep(
      W.resolveAnnotation(*W.paperAnnotation()), /*NumWorkers=*/4);
  ASSERT_TRUE(R.succeeded());
  EXPECT_TRUE(W.validate(Reference))
      << "WAW conflicts must serialize same-vertex scatters exactly";
  EXPECT_GT(R.Stats.NumRetries, 0u)
      << "hub vertices must collide on the skewed graph";
}

TEST(GenomeTest, StaleReadsSkipsReadInstrumentation) {
  GenomeWorkload W;
  W.setUp(0);
  const RunResult Stale = W.runLockstep(
      W.resolveAnnotation(*W.paperAnnotation()), /*NumWorkers=*/4);
  ASSERT_TRUE(Stale.succeeded());

  W.setUp(0);
  Annotation Ooo;
  Ooo.Policy = ParallelPolicy::OutOfOrder;
  const RunResult Out =
      W.runLockstep(W.resolveAnnotation(Ooo), /*NumWorkers=*/4);
  ASSERT_TRUE(Out.succeeded());

  // Table 4: Genome-StaleReads tracks 16 words/txn vs 89 under
  // OutOfOrder; the shape to preserve is reads >> writes.
  EXPECT_EQ(Stale.Stats.ReadSetWords.mean(), 0.0);
  EXPECT_GT(Out.Stats.ReadSetWords.mean(),
            4.0 * Out.Stats.WriteSetWords.mean());
}

TEST(KmeansTest, ReductionIsRequired) {
  KmeansWorkload W;
  W.setUp(0);
  ASSERT_TRUE(W.runSequential().succeeded());
  const std::vector<double> Reference = W.outputSignature();

  // With the + reduction on delta: valid, modest retry rate.
  W.setUp(0);
  const RunResult WithRed = W.runLockstep(
      W.resolveAnnotation(*W.paperAnnotation()), /*NumWorkers=*/4);
  ASSERT_TRUE(WithRed.succeeded()) << WithRed.Detail;
  EXPECT_TRUE(W.validate(Reference));
  EXPECT_LT(WithRed.Stats.retryRate(), 0.5);

  // Without it, every transaction writes delta: the runs degenerate to
  // high conflicts (Table 3's h.c. for bare StaleReads).
  W.setUp(0);
  Annotation Bare;
  Bare.Policy = ParallelPolicy::StaleReads;
  const RunResult NoRed =
      W.runLockstep(W.resolveAnnotation(Bare), /*NumWorkers=*/4);
  EXPECT_GT(NoRed.Stats.retryRate(), 0.5)
      << "bare StaleReads on K-means must exhibit high conflicts";
}

TEST(KmeansTest, MoreClustersMeansFewerConflicts) {
  // Figure 8's lesson: speedup grows with the cluster count because
  // conflicts shrink.
  double Rates[2];
  for (size_t Input : {0u, 1u}) { // 8k-256 vs 8k-512
    KmeansWorkload W;
    W.setUp(Input);
    // Coarse chunks make the contention difference measurable (at the
    // tuned cf=4 both rates sit in the low single digits, like Table 4).
    Annotation A = *W.paperAnnotation();
    A.ChunkFactor = 16;
    const RunResult R =
        W.runLockstep(W.resolveAnnotation(A), /*NumWorkers=*/4);
    ASSERT_TRUE(R.succeeded()) << R.Detail;
    Rates[Input] = R.Stats.retryRate();
  }
  EXPECT_LT(Rates[1], Rates[0])
      << "512 clusters must conflict less than 256";
}

TEST(KmeansTest, ScheduledRunsUseThreadsOnlyForTheCertifiedAnnotation) {
  // runScheduled sends a chunked loop to threads only when its params
  // realize the paper annotation (at any chunk factor) and no fault plan
  // is armed. An armed fault plan or any other params send it to the fork
  // engine; a journal does not, since the threaded engine journals its
  // commits too.
  KmeansWorkload W;
  W.setUp(0);
  ASSERT_TRUE(W.runSequential().succeeded());
  const std::vector<double> Reference = W.outputSignature();
  const RuntimeParams Paper = W.resolveAnnotation(*W.paperAnnotation());
  const auto Run = [&](const RuntimeParams &Params,
                       CommitJournal *Journal = nullptr) {
    W.setUp(0);
    const size_t Threads = threadsOfSelf();
    const RunResult R =
        W.runScheduled(SchedulePolicy::Auto, Params, /*NumWorkers=*/3,
                       /*SeqBaselineNs=*/0, TxnLimits(), Journal);
    EXPECT_TRUE(R.succeeded()) << R.Detail;
    EXPECT_TRUE(W.validate(Reference));
    EXPECT_EQ(threadsOfSelf(), Threads)
        << "no helper thread outlives its runner";
    return R;
  };
  const auto Forks = [](const RunResult &R) {
    return R.Stats.WarmForks + R.Stats.ColdForks;
  };
  FaultPlan::global().clear();
  EXPECT_EQ(Forks(Run(Paper)), 0u);
  RuntimeParams Coarse = Paper;
  Coarse.ChunkFactor = 4 * Paper.ChunkFactor;
  EXPECT_EQ(Forks(Run(Coarse)), 0u) << "any chunk factor stays certified";

  Annotation OutOfOrder = *W.paperAnnotation();
  OutOfOrder.Policy = ParallelPolicy::OutOfOrder;
  EXPECT_GT(Forks(Run(W.resolveAnnotation(OutOfOrder))), 0u)
      << "an annotation the inference did not certify must fork";

  // A fault armed against a chunk the loop never reaches strikes nothing,
  // but fault plans act in forked children.
  FaultPlan::global().arm(FaultKind::ChildCrash, /*Chunk=*/1 << 30);
  EXPECT_GT(Forks(Run(Paper)), 0u) << "an armed fault plan must fork";
  FaultPlan::global().clear();

  const std::string Path =
      "/tmp/alter_routing_" + std::to_string(::getpid()) + ".alterj";
  ::unlink(Path.c_str());
  JournalIdentity Id;
  Id.Workload = W.name();
  std::string Error;
  std::unique_ptr<CommitJournal> Journal =
      CommitJournal::open(Path, Id, CommitJournal::Options(), &Error);
  ASSERT_TRUE(Journal) << Error;
  const RunResult Journaled = Run(Paper, Journal.get());
  EXPECT_EQ(Forks(Journaled), 0u) << "a journal stays on threads";
  Journal.reset();
  // Reopened, the journal holds every invocation, closed, with one frame
  // per committed chunk.
  Journal = CommitJournal::open(Path, Id, CommitJournal::Options(), &Error);
  ASSERT_TRUE(Journal) << Error;
  EXPECT_TRUE(Journal->recovered());
  const std::vector<JournalFrame> &Frames = Journal->frames();
  ASSERT_GE(Frames.size(), 3u);
  EXPECT_EQ(Frames.front().FrameKind, JournalFrame::Kind::LoopBegin);
  EXPECT_EQ(Frames.back().FrameKind, JournalFrame::Kind::LoopEnd);
  EXPECT_EQ(static_cast<uint64_t>(std::count_if(
                Frames.begin(), Frames.end(),
                [](const JournalFrame &F) {
                  return F.FrameKind == JournalFrame::Kind::Commit;
                })),
            Journaled.Stats.NumCommitted)
      << "one frame per committed chunk";
  // A restart on the same journal replays every committed chunk on the
  // threaded route and dispatches nothing speculative.
  const RunResult Replayed = Run(Paper, Journal.get());
  EXPECT_EQ(Forks(Replayed), 0u);
  EXPECT_EQ(Replayed.Stats.ReplayedChunks, Journaled.Stats.NumCommitted);
  EXPECT_TRUE(Replayed.CommitOrder.empty())
      << "a pure replay dispatches nothing speculative";
  Journal.reset();
  ::unlink(Path.c_str());
}

namespace {

/// Forwards every invocation to \p Inner, with SIGTERM raised from the body
/// of the middle iteration of the second invocation.
class SigtermRunner : public LoopRunner {
public:
  explicit SigtermRunner(LoopRunner &Inner) : Inner(Inner) {}

  bool runInner(const LoopSpec &Spec) override {
    if (++Invocation != 2)
      return Inner.runInner(Spec);
    LoopSpec Raising = Spec;
    const int64_t At = Spec.NumIterations / 2;
    Raising.Body = [this, At, Body = Spec.Body](TxnContext &Ctx, int64_t I) {
      if (I == At && !Raised.exchange(true))
        ::raise(SIGTERM);
      Body(Ctx, I);
    };
    return Inner.runInner(Raising);
  }

private:
  LoopRunner &Inner;
  int Invocation = 0;
  std::atomic<bool> Raised{false};
};

/// K-means whose second invocation raises SIGTERM from its body.
class SigtermKmeans : public KmeansWorkload {
public:
  void run(LoopRunner &Runner) override {
    SigtermRunner Raising(Runner);
    KmeansWorkload::run(Raising);
  }
};

/// Runs the journaled, scheduled k-means that SIGTERM interrupts, then
/// restarts it on the same journal; exits 0 when every check held.
[[noreturn]] void interruptThenResumeKmeans() {
  const std::string Path =
      "/tmp/alter_sigterm_" + std::to_string(::getpid()) + ".alterj";
  ::unlink(Path.c_str());
  FaultPlan::global().clear();
  KmeansWorkload W;
  W.setUp(0);
  EXPECT_TRUE(W.runSequential().succeeded());
  const std::vector<double> Reference = W.outputSignature();
  const RuntimeParams Paper = W.resolveAnnotation(*W.paperAnnotation());
  JournalIdentity Id;
  Id.Workload = W.name();
  std::string Error;
  std::unique_ptr<CommitJournal> Journal =
      CommitJournal::open(Path, Id, CommitJournal::Options(), &Error);
  EXPECT_TRUE(Journal) << Error;
  SigtermKmeans Raising;
  Raising.setUp(0);
  const RunResult Stopped =
      Raising.runScheduled(SchedulePolicy::Auto, Paper, /*NumWorkers=*/3,
                           /*SeqBaselineNs=*/0, TxnLimits(), Journal.get());
  EXPECT_EQ(Stopped.Status, RunStatus::Interrupted) << Stopped.Detail;
  EXPECT_EQ(Stopped.Stats.WarmForks + Stopped.Stats.ColdForks, 0u)
      << "the journaled run stays on threads";
  EXPECT_EQ(shutdownSignal(), SIGTERM);
  clearShutdownRequest();
  Journal.reset();

  Journal = CommitJournal::open(Path, Id, CommitJournal::Options(), &Error);
  EXPECT_TRUE(Journal && !Journal->frames().empty()) << Error;
  if (Journal && !Journal->frames().empty()) {
    EXPECT_TRUE(Journal->recovered());
    EXPECT_NE(Journal->frames().back().FrameKind,
              JournalFrame::Kind::LoopEnd)
        << "the interrupted invocation must still be open";
    W.setUp(0);
    const RunResult Resumed =
        W.runScheduled(SchedulePolicy::Auto, Paper, /*NumWorkers=*/3,
                       /*SeqBaselineNs=*/0, TxnLimits(), Journal.get());
    EXPECT_TRUE(Resumed.succeeded()) << Resumed.Detail;
    EXPECT_GT(Resumed.Stats.ReplayedChunks, 0u);
    EXPECT_TRUE(W.validate(Reference))
        << "the restart must reach the sequential output";
  }
  Journal.reset();
  ::unlink(Path.c_str());
  std::exit(::testing::Test::HasFailure() ? 1 : 0);
}

} // namespace

TEST(KmeansTest, SigtermStopsAJournaledScheduledRunResumably) {
  // A fresh process, in which nothing has installed the shutdown handlers:
  // the threaded engine the journaled run takes must install them itself,
  // or SIGTERM kills the process with its journal unsynced and its lease
  // held.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(interruptThenResumeKmeans(), ::testing::ExitedWithCode(0), "");
}

TEST(LabyrinthTest, AllPoliciesConflictHeavily) {
  LabyrinthWorkload W;
  W.setUp(0);
  ASSERT_TRUE(W.runSequential().succeeded());
  EXPECT_GT(W.routedCount(), 0);

  W.setUp(0);
  Annotation Stale;
  Stale.Policy = ParallelPolicy::StaleReads;
  RuntimeParams Params = W.resolveAnnotation(Stale);
  const RunResult R = W.runLockstep(Params, /*NumWorkers=*/4);
  // Table 3: Labyrinth fails every policy with high conflicts.
  EXPECT_GT(R.Stats.retryRate(), 0.5)
      << "overlapping routes must conflict on most commits";
}

TEST(AggloClustTest, ReadTrackingExhaustsMemory) {
  AggloClustWorkload W;
  W.setUp(0);
  TxnLimits Limits;
  Limits.MaxAccessSetBytes = 160 << 10; // the modeled machine limit
  Annotation Ooo;
  Ooo.Policy = ParallelPolicy::OutOfOrder;
  const RunResult R = W.runLockstep(W.resolveAnnotation(Ooo),
                                    /*NumWorkers=*/4, /*SeqBaselineNs=*/0,
                                    Limits);
  EXPECT_EQ(R.Status, RunStatus::Crash)
      << "Table 3: AggloClust crashes under OutOfOrder (read-set OOM)";

  // StaleReads tracks no reads, so the same cap is harmless.
  W.setUp(0);
  const RunResult Stale =
      W.runLockstep(W.resolveAnnotation(*W.paperAnnotation()),
                    /*NumWorkers=*/4, /*SeqBaselineNs=*/0, Limits);
  EXPECT_TRUE(Stale.succeeded()) << Stale.Detail;
}

TEST(AggloClustTest, MergesConserveMassUnderStaleReads) {
  AggloClustWorkload W;
  W.setUp(0);
  ASSERT_TRUE(W.runSequential().succeeded());
  const std::vector<double> Reference = W.outputSignature();
  EXPECT_EQ(W.aliveClusters(), 1u);

  W.setUp(0);
  const RunResult R = W.runLockstep(
      W.resolveAnnotation(*W.paperAnnotation()), /*NumWorkers=*/4);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_EQ(W.aliveClusters(), 1u);
  EXPECT_TRUE(W.validate(Reference));
}

TEST(Sg3dTest, PlusReductionConvergesButSlower) {
  Sg3dWorkload W;
  W.setUp(0);
  ASSERT_TRUE(W.runSequential().succeeded());
  const std::vector<double> Reference = W.outputSignature();
  const int SeqTrips = W.tripCount();

  // max reduction: valid, near-sequential convergence.
  W.setUp(0);
  ASSERT_TRUE(W.runLockstep(W.resolveAnnotation(*W.paperAnnotation()),
                            /*NumWorkers=*/4)
                  .succeeded());
  EXPECT_TRUE(W.validate(Reference));
  const int MaxTripsCount = W.tripCount();
  EXPECT_LE(MaxTripsCount, SeqTrips + 8);

  // + reduction: also valid (sum < t implies max < t) but convergence
  // takes notably longer (paper: 1670 -> 2752).
  W.setUp(0);
  Annotation Plus = *parseAnnotation("[StaleReads + Reduction(err, +)]");
  ASSERT_TRUE(
      W.runLockstep(W.resolveAnnotation(Plus), /*NumWorkers=*/4).succeeded());
  EXPECT_TRUE(W.validate(Reference));
  EXPECT_GT(W.tripCount(), MaxTripsCount + MaxTripsCount / 4)
      << "+ must converge substantially slower than max";
}

TEST(BarnesHutTest, ForkJoinMatchesLockstepExactly) {
  BarnesHutWorkload A, B;
  A.setUp(0);
  B.setUp(0);
  const RuntimeParams Params = A.resolveAnnotation(*A.paperAnnotation());
  ASSERT_TRUE(A.runLockstep(Params, /*NumWorkers=*/3).succeeded());
  ASSERT_TRUE(B.runForkJoin(Params, /*NumWorkers=*/3).succeeded());
  EXPECT_EQ(A.outputSignature(), B.outputSignature())
      << "both engines run the same deterministic protocol";
}
