//===- workloads/GaussSeidel.h - GSdense / GSsparse --------------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 1 benchmark: Gauss-Seidel iteration solving Ax = b,
/// in dense and sparse (CSR) variants (Table 2's GSdense / GSsparse —
/// dense and sparse linear algebra dwarfs). The inner loop has a tight
/// loop-carried RAW chain (each x[i] write is read by every later
/// iteration), so the only way to parallelize is to break true dependences:
/// under [StaleReads] the writes are disjoint (no WAW conflicts) and the
/// stale reads merely slow convergence slightly (the paper measures 16→17
/// dense and 20→21 sparse outer iterations).
///
/// Output validation is assertion-style, as in the paper: the solver must
/// converge and the final residual must satisfy the tolerance.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_WORKLOADS_GAUSSSEIDEL_H
#define ALTER_WORKLOADS_GAUSSSEIDEL_H

#include "workloads/Workload.h"

#include <cstdint>
#include <vector>

namespace alter {

/// Gauss-Seidel linear solver (dense or CSR-sparse A).
class GaussSeidelWorkload : public Workload {
public:
  /// \p Sparse selects the CSR variant (GSsparse) over dense (GSdense).
  explicit GaussSeidelWorkload(bool Sparse) : Sparse(Sparse) {}

  std::string name() const override { return Sparse ? "gssparse" : "gsdense"; }
  std::string description() const override;
  std::string suite() const override {
    return Sparse ? "Sparse linear algebra" : "Dense linear algebra";
  }

  size_t numInputs() const override { return 2; }
  std::string inputName(size_t Index) const override;
  void setUp(size_t Index) override;

  void run(LoopRunner &Runner) override;

  std::vector<double> outputSignature() const override;
  bool validate(const std::vector<double> &Reference) const override;

  std::optional<Annotation> paperAnnotation() const override {
    return parseAnnotation("[StaleReads]");
  }
  /// Table 4 tunes cf=32 on the paper's inputs; our rows are ~100x
  /// cheaper, so the sparse variant needs proportionally larger chunks to
  /// amortize round synchronization.
  int defaultChunkFactor() const override { return Sparse ? 128 : 32; }

  /// Outer-loop sweeps the last run() needed to converge; the paper's
  /// convergence experiment (16→17 / 20→21) reads this.
  int tripCount() const { return TripCount; }

  /// True when the last run() converged within the sweep budget.
  bool converged() const { return Converged; }

  /// Infinity-norm of b - Ax over the current x.
  double residualInf() const;

  /// System access for the §7.3 manual-parallelization baseline (the
  /// hand-written multi-copy solver). Dense variant only.
  const std::vector<double> &denseMatrix() const { return DenseA; }
  const std::vector<double> &rhs() const { return B; }
  int64_t dimension() const { return N; }
  double tolerance() const { return Eps; }

private:
  void buildSystem(int64_t Size, int64_t NonzerosPerRow);
  double residualRow(int64_t I) const;
  bool checkConvergence() const;

  bool Sparse;
  int64_t N = 0;

  // Dense storage (row-major) or CSR storage.
  std::vector<double> DenseA;
  std::vector<double> Values;
  std::vector<int32_t> Cols;
  std::vector<int64_t> RowPtr;

  std::vector<double> B;
  std::vector<double> X;

  double Eps = 1e-8;
  int MaxTrips = 400;
  int TripCount = 0;
  bool Converged = false;
};

} // namespace alter

#endif // ALTER_WORKLOADS_GAUSSSEIDEL_H
