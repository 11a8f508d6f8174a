//===- workloads/Floyd.h - Floyd-Warshall all-pairs shortest paths -*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic-programming dwarf (Table 2): Floyd-Warshall with the
/// relaxation path[i][j] = min(path[i][j], path[i][k] + path[k][j]). The
/// middle (i) loop is annotated; the k loop stays sequential. Although the
/// loop nest has a tight dependence chain, violating RAW dependences is
/// harmless — with non-negative weights, sweep k never modifies row k or
/// column k, so the "stale" values read under snapshot isolation are in
/// fact always current and the output is exact (the paper cites Tarjan's
/// algebraic path framework [40]).
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_WORKLOADS_FLOYD_H
#define ALTER_WORKLOADS_FLOYD_H

#include "workloads/Workload.h"

#include <cstdint>
#include <vector>

namespace alter {

/// Floyd-Warshall all-pairs shortest paths.
class FloydWorkload : public Workload {
public:
  std::string name() const override { return "floyd"; }
  std::string description() const override {
    return "Floyd-Warshall all-pairs shortest paths (triply nested "
           "relaxation)";
  }
  std::string suite() const override { return "Dynamic programming"; }

  size_t numInputs() const override { return 2; }
  std::string inputName(size_t Index) const override {
    return Index == 0 ? "160 nodes" : "288 nodes";
  }
  void setUp(size_t Index) override;

  void run(LoopRunner &Runner) override;

  std::vector<double> outputSignature() const override;
  bool validate(const std::vector<double> &Reference) const override;

  std::optional<Annotation> paperAnnotation() const override {
    return parseAnnotation("[StaleReads]");
  }
  int defaultChunkFactor() const override { return 16; }

private:
  int64_t N = 0;
  std::vector<double> Path;
};

} // namespace alter

#endif // ALTER_WORKLOADS_FLOYD_H
