//===- workloads/Hmm.h - Hidden Markov Model forward solver ------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The graphical-models dwarf: the HMM forward algorithm with per-step
/// scaling. The time recurrence stays sequential; the annotated loop
/// computes alpha[t][s] for all states s at a fixed t. Each iteration
/// reads the previous step's (already committed) alpha row and writes one
/// disjoint slot, so there is no loop-carried dependence (Table 3:
/// Dep = No) and the loop parallelizes under every policy with good
/// speedups (Figure 13).
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_WORKLOADS_HMM_H
#define ALTER_WORKLOADS_HMM_H

#include "workloads/Workload.h"

#include <cstdint>
#include <vector>

namespace alter {

/// HMM forward-probability computation.
class HmmWorkload : public Workload {
public:
  std::string name() const override { return "hmm"; }
  std::string description() const override {
    return "HMM forward algorithm: per-step state loop over the "
           "recurrence";
  }
  std::string suite() const override { return "Graphical models"; }

  size_t numInputs() const override { return 2; }
  std::string inputName(size_t Index) const override {
    return Index == 0 ? "128 states x 256 steps" : "192 states x 384 steps";
  }
  void setUp(size_t Index) override;

  void run(LoopRunner &Runner) override;

  std::vector<double> outputSignature() const override;
  bool validate(const std::vector<double> &Reference) const override;

  std::optional<Annotation> paperAnnotation() const override {
    return parseAnnotation("[StaleReads]");
  }
  int defaultChunkFactor() const override { return 32; }

  /// Final scaled log-likelihood.
  double logLikelihood() const { return LogLik; }

private:
  int64_t NumStates = 0;
  int64_t NumSteps = 0;
  int64_t NumSymbols = 0;

  std::vector<double> Transition; // NumStates x NumStates (column access)
  std::vector<double> Emission;   // NumStates x NumSymbols
  std::vector<int32_t> Observations;
  std::vector<double> AlphaPrev;
  std::vector<double> AlphaNext;
  double LogLik = 0.0;
};

} // namespace alter

#endif // ALTER_WORKLOADS_HMM_H
