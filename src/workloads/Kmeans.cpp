//===- workloads/Kmeans.cpp -----------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Kmeans.h"

#include "support/Format.h"
#include "support/Random.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace alter;

std::string KmeansWorkload::inputName(size_t Index) const {
  assert(Index < numInputs() && "input index out of range");
  switch (Index) {
  case 0:
    return "8k-256";
  case 1:
    return "8k-512";
  case 2:
    return "16k-256";
  default:
    return "16k-512";
  }
}

void KmeansWorkload::setUp(size_t Index) {
  assert(Index < numInputs() && "input index out of range");
  // Figure 5/8's four configurations, scaled ~4x down from the paper's
  // 16k/64k points x 512/1024 clusters.
  NumPoints = Index < 2 ? 8192 : 16384;
  NumClusters = (Index % 2) == 0 ? 256 : 512;
  NumFeatures = 16;

  Xoshiro256StarStar Rng(0x4B3A25 + static_cast<uint64_t>(Index));
  Features.assign(
      static_cast<size_t>(NumPoints) * static_cast<size_t>(NumFeatures), 0.f);
  // Points scatter around NumClusters ground-truth blobs so the algorithm
  // has real structure to find.
  std::vector<float> Blobs(
      static_cast<size_t>(NumClusters) * static_cast<size_t>(NumFeatures));
  for (float &V : Blobs)
    V = static_cast<float>(Rng.nextDoubleIn(0.0, 10.0));
  // Points mostly follow a round-robin blob layout (consecutive points hit
  // distinct blobs, as in interleaved sensor streams), with a minority
  // shuffled across blobs. The striding keeps a chunk's cluster updates
  // disjoint from its round-mates' (the paper's K-means sustains
  // single-digit retry rates, Table 4), while the shuffled fraction
  // preserves Figure 8's cluster-count-vs-conflicts relationship.
  for (int64_t P = 0; P != NumPoints; ++P) {
    const bool Shuffled = Rng.nextBounded(100) < 10;
    const int64_t Blob =
        Shuffled ? static_cast<int64_t>(
                       Rng.nextBounded(static_cast<uint64_t>(NumClusters)))
                 : P % NumClusters;
    for (int64_t F = 0; F != NumFeatures; ++F)
      Features[static_cast<size_t>(P * NumFeatures + F)] =
          Blobs[static_cast<size_t>(Blob * NumFeatures + F)] +
          static_cast<float>(Rng.nextDoubleIn(-0.5, 0.5));
  }

  // Initial centers: the first NumClusters points (the STAMP convention).
  Clusters.assign(
      static_cast<size_t>(NumClusters) * static_cast<size_t>(NumFeatures),
      0.0);
  for (int64_t C = 0; C != NumClusters; ++C)
    for (int64_t F = 0; F != NumFeatures; ++F)
      Clusters[static_cast<size_t>(C * NumFeatures + F)] =
          Features[static_cast<size_t>(C * NumFeatures + F)];

  Membership.assign(static_cast<size_t>(NumPoints), -1);
  NewCenters.assign(
      static_cast<size_t>(NumClusters) * static_cast<size_t>(NumFeatures),
      0.0);
  NewCentersLen.assign(static_cast<size_t>(NumClusters), 0);
  Delta = 0.0;
  TripCount = 0;

  // Label the mutable regions so trace-mode conflict attribution reports
  // "kmeans.newCenters+0x..." instead of raw addresses.
  traceLabelRegion(NewCenters.data(), NewCenters.size() * sizeof(double),
                   "kmeans.newCenters");
  traceLabelRegion(NewCentersLen.data(),
                   NewCentersLen.size() * sizeof(int64_t),
                   "kmeans.newCentersLen");
  traceLabelRegion(Membership.data(), Membership.size() * sizeof(int32_t),
                   "kmeans.membership");
}

void KmeansWorkload::run(LoopRunner &Runner) {
  TripCount = 0;

  LoopSpec Spec;
  Spec.Name = "kmeans.main";
  Spec.NumIterations = NumPoints;
  Spec.Reductions.push_back({"delta", &Delta, ScalarKind::F64});
  Spec.Body = [this](TxnContext &Ctx, int64_t I) {
    // common_findNearestPoint: Features and Clusters are read-only during
    // the loop (centers update between sweeps), so the search is plain
    // computation.
    const float *Point = &Features[static_cast<size_t>(I * NumFeatures)];
    Ctx.noteMemoryTraffic(static_cast<uint64_t>(NumFeatures) *
                              (sizeof(float) + sizeof(double)) +
                          64);
    int32_t Index = 0;
    double Best = 1e300;
    for (int64_t C = 0; C != NumClusters; ++C) {
      const double *Center = &Clusters[static_cast<size_t>(C * NumFeatures)];
      double Dist = 0.0;
      for (int64_t F = 0; F != NumFeatures; ++F) {
        const double D = static_cast<double>(Point[F]) - Center[F];
        Dist += D * D;
      }
      if (Dist < Best) {
        Best = Dist;
        Index = static_cast<int32_t>(C);
      }
    }

    // If membership changes, increase delta by 1 (additive reduction;
    // source form delta += 1.0).
    const int32_t OldMember = Ctx.load(&Membership[static_cast<size_t>(I)]);
    if (OldMember != Index)
      Ctx.redUpdateF(0, ReduceOp::Plus, 1.0);
    Ctx.store(&Membership[static_cast<size_t>(I)], Index);

    // Update new cluster centers: read-modify-write of the shared
    // accumulators; concurrent points in the same cluster conflict.
    const int64_t Len =
        Ctx.load(&NewCentersLen[static_cast<size_t>(Index)]);
    Ctx.store(&NewCentersLen[static_cast<size_t>(Index)], Len + 1);
    double *Row = &NewCenters[static_cast<size_t>(Index) *
                              static_cast<size_t>(NumFeatures)];
    double *Accum = Ctx.scratch<double>(static_cast<size_t>(NumFeatures));
    Ctx.readRange(Row, static_cast<size_t>(NumFeatures), Accum);
    for (int64_t F = 0; F != NumFeatures; ++F)
      Accum[F] += static_cast<double>(Point[F]);
    Ctx.writeRange(Row, Accum, static_cast<size_t>(NumFeatures));
  };

  // while (delta/npoints > threshold) { delta = 0; <annotated for> ;
  //   recompute centers }
  const double ConvergenceFraction = 0.01;
  do {
    if (TripCount >= MaxTrips)
      return;
    ++TripCount;
    Delta = 0.0;
    std::fill(NewCenters.begin(), NewCenters.end(), 0.0);
    std::fill(NewCentersLen.begin(), NewCentersLen.end(), 0);
    if (!Runner.runInner(Spec))
      return;
    // Form the next sweep's centers from the accumulators (sequential, as
    // in STAMP).
    for (int64_t C = 0; C != NumClusters; ++C) {
      const int64_t Len = NewCentersLen[static_cast<size_t>(C)];
      if (Len == 0)
        continue;
      for (int64_t F = 0; F != NumFeatures; ++F)
        Clusters[static_cast<size_t>(C * NumFeatures + F)] =
            NewCenters[static_cast<size_t>(C * NumFeatures + F)] /
            static_cast<double>(Len);
    }
  } while (Delta / static_cast<double>(NumPoints) > ConvergenceFraction);
}

std::vector<double> KmeansWorkload::outputSignature() const {
  // Sorted per-cluster centroid checksums: cluster identities are stable
  // here (membership assignment is deterministic), but sorting makes the
  // signature robust to benign reorderings. Plus the clustering objective.
  std::vector<double> Checks;
  Checks.reserve(static_cast<size_t>(NumClusters));
  for (int64_t C = 0; C != NumClusters; ++C) {
    double Sum = 0.0;
    for (int64_t F = 0; F != NumFeatures; ++F)
      Sum += Clusters[static_cast<size_t>(C * NumFeatures + F)] *
             static_cast<double>(F + 1);
    Checks.push_back(Sum);
  }
  std::sort(Checks.begin(), Checks.end());

  double Sse = 0.0;
  for (int64_t P = 0; P != NumPoints; ++P) {
    const int64_t C = Membership[static_cast<size_t>(P)];
    if (C < 0)
      continue;
    for (int64_t F = 0; F != NumFeatures; ++F) {
      const double D =
          static_cast<double>(
              Features[static_cast<size_t>(P * NumFeatures + F)]) -
          Clusters[static_cast<size_t>(C * NumFeatures + F)];
      Sse += D * D;
    }
  }
  std::vector<double> Sig = {Sse};
  Sig.insert(Sig.end(), Checks.begin(), Checks.end());
  return Sig;
}

bool KmeansWorkload::validate(const std::vector<double> &Reference) const {
  // Program-specific approximate comparison (paper §7.1): the clustering
  // objective must match within 1% and the sorted centroid checksums must
  // agree loosely.
  const std::vector<double> Mine = outputSignature();
  if (Mine.size() != Reference.size() || Reference.empty())
    return false;
  if (std::fabs(Mine[0] - Reference[0]) >
      0.01 * std::max(1.0, std::fabs(Reference[0])))
    return false;
  for (size_t I = 1; I != Mine.size(); ++I)
    if (std::fabs(Mine[I] - Reference[I]) >
        0.05 * std::max(1.0, std::fabs(Reference[I])))
      return false;
  return true;
}
