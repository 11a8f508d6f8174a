//===- workloads/Labyrinth.h - STAMP maze routing ----------------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The STAMP Labyrinth benchmark: route point-to-point paths through a
/// grid, claiming the cells of each routed path (Lee's algorithm). The
/// grid is an AlterVector (the paper's note for this benchmark). Routes
/// overlap heavily, so concurrent iterations conflict on claimed cells —
/// this is the one benchmark the paper could NOT parallelize: every policy
/// fails with high conflicts (Table 3).
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_WORKLOADS_LABYRINTH_H
#define ALTER_WORKLOADS_LABYRINTH_H

#include "collections/AlterVector.h"
#include "workloads/Workload.h"

#include <cstdint>
#include <vector>

namespace alter {

/// Grid router with per-path cell claiming.
class LabyrinthWorkload : public Workload {
public:
  std::string name() const override { return "labyrinth"; }
  std::string description() const override {
    return "Maze routing: claim shortest paths through a shared grid "
           "(uses AlterVector)";
  }
  std::string suite() const override { return "STAMP"; }

  size_t numInputs() const override { return 2; }
  std::string inputName(size_t Index) const override {
    return Index == 0 ? "64x64x1, 64 paths" : "96x96x2, 128 paths";
  }
  void setUp(size_t Index) override;

  void run(LoopRunner &Runner) override;

  std::vector<double> outputSignature() const override;
  bool validate(const std::vector<double> &Reference) const override;

  /// The paper found no valid annotation for Labyrinth.
  std::optional<Annotation> paperAnnotation() const override {
    return std::nullopt;
  }
  int defaultChunkFactor() const override { return 1; }

  /// Paths successfully routed in the last run.
  int64_t routedCount() const;

private:
  int64_t cellIndex(int64_t X, int64_t Y, int64_t Z) const {
    return (Z * DimY + Y) * DimX + X;
  }

  int64_t DimX = 0, DimY = 0, DimZ = 0;
  AlterVector<int32_t> Grid; ///< -1 free, otherwise owning path id
  std::vector<std::pair<int64_t, int64_t>> Endpoints; ///< (src, dst) cells
  std::vector<int32_t> Routed; ///< per path: 1 if routed
  /// Routed paths appended to a shared list through a shared cursor, as in
  /// STAMP's global path list — every pair of concurrently routed paths
  /// conflicts here, the benchmark's second conflict source.
  AlterVector<int32_t> PathList;
  int64_t PathCursor = 0;
};

} // namespace alter

#endif // ALTER_WORKLOADS_LABYRINTH_H
