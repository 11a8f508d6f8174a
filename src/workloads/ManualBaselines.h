//===- workloads/ManualBaselines.h - §7.3 hand parallelizations -*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §7.3 compares ALTER against two hand-written parallel
/// programs:
///
///  - "We manually implement a multi-threaded version of Gauss-Seidel that
///    mimics the runtime behavior of StaleReads by maintaining multiple
///    copies of XVector that are synchronized in exactly the same way as a
///    chunked execution under ALTER."
///  - "We also parallelize K-means using threads and fine-grained
///    locking."
///
/// Both are implemented here with real std::thread code. Figure 8/9's
/// manual speedup series sweep more processors than the host has, so they
/// use a documented analytic model instead of timing this code; its
/// outputs are validated against the sequential algorithms in
/// tests/ManualBaselineTest.cpp — the code itself is the deliverable.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_WORKLOADS_MANUALBASELINES_H
#define ALTER_WORKLOADS_MANUALBASELINES_H

#include <cstdint>
#include <vector>

namespace alter {

class GaussSeidelWorkload;
class KmeansWorkload;

/// Result of the hand-parallelized K-means.
struct ManualKmeansResult {
  std::vector<double> Clusters; ///< final centers (NumClusters x Features)
  std::vector<int32_t> Membership;
  int Sweeps = 0;
  /// Clustering objective (sum of squared distances to assigned centers).
  double Sse = 0.0;
  uint64_t WallNs = 0;
};

/// Threads + fine-grained locking K-means over \p Reference's input (which
/// must have been setUp). Points are block-partitioned across \p NumThreads
/// threads; each center accumulator is guarded by its own mutex; the
/// membership-change counter is atomic. Converges with the same criterion
/// as the workload.
ManualKmeansResult runManualKmeans(const KmeansWorkload &Reference,
                                   unsigned NumThreads);

/// Result of the hand-parallelized multi-copy Gauss-Seidel.
struct ManualGaussSeidelResult {
  std::vector<double> X;
  int Sweeps = 0;
  double ResidualInf = 0.0;
  bool Converged = false;
  uint64_t WallNs = 0;
};

/// The paper's multi-copy solver: each thread owns a private copy of x,
/// updates its assigned chunk of rows per round against that (stale) copy,
/// and all copies resynchronize at a barrier after every round — exactly
/// the communication pattern of a chunked StaleReads execution. Dense
/// systems only (the §7.3 comparison used GSdense/GSsparse; dense is the
/// representative here).
ManualGaussSeidelResult
runManualGaussSeidel(const GaussSeidelWorkload &Reference,
                     unsigned NumThreads, int ChunkFactor,
                     int MaxSweeps = 400);

} // namespace alter

#endif // ALTER_WORKLOADS_MANUALBASELINES_H
