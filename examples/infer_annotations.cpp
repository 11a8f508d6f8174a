//===- examples/infer_annotations.cpp - Assisted parallelization ----------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary usage scenario (§6, "assisted parallelization"): a
/// developer points ALTER at a loop, the test-driven inference engine
/// evaluates every candidate annotation in sandboxed runs, and the
/// developer gets back the annotations that preserved the program's output
/// — plus failure diagnoses for the rest.
///
/// Usage:
///   ./build/examples/infer_annotations            # all 12 benchmarks
///   ./build/examples/infer_annotations kmeans     # one benchmark
///
//===----------------------------------------------------------------------===//

#include "inference/InferenceEngine.h"
#include "support/Format.h"

#include <cstdio>
#include <cstring>

using namespace alter;

namespace {

void report(const InferenceEngine &Engine, const std::string &Name) {
  std::printf("\n=== %s ===\n", Name.c_str());
  const InferenceResult R = Engine.inferForWorkload(Name);
  std::printf("loop-carried dependence: %s\n",
              R.LoopCarriedDep ? "yes" : "no");
  auto Show = [](const CandidateReport &Rep) {
    std::printf("  %-22s %-9s", Rep.Cand.str().c_str(),
                inferenceOutcomeName(Rep.Outcome));
    if (Rep.Stats.NumTransactions != 0)
      std::printf("  (retry %s, %llu txns)",
                  formatPercent(Rep.Stats.retryRate()).c_str(),
                  static_cast<unsigned long long>(Rep.Stats.NumTransactions));
    std::printf("\n");
  };
  Show(R.Tls);
  Show(R.OutOfOrder);
  Show(R.StaleReads);
  for (const CandidateReport &Rep : R.ReductionSearch)
    Show(Rep);

  const std::vector<Candidate> Valid = R.validCandidates();
  if (Valid.empty()) {
    std::printf("suggestion: no annotation preserves the output — a new "
                "algorithm is needed to use multicore here (§6)\n");
    return;
  }
  std::printf("suggestion: annotate the loop with %s",
              Valid.front().str().c_str());
  std::unique_ptr<Workload> W = makeWorkload(Name);
  const int Cf = searchChunkFactor(*W, Valid.front(), /*NumWorkers=*/4,
                                   /*InputIndex=*/0, /*MaxChunkFactor=*/512);
  std::printf(", chunk factor %d (iterative doubling search)\n", Cf);
}

} // namespace

int main(int Argc, char **Argv) {
  InferenceConfig Config;
  const InferenceEngine Engine(Config);
  std::printf("ALTER test-driven annotation inference (§5)\n");
  std::printf("One run per candidate suffices: the runtime is "
              "deterministic (§4.3).\n");

  if (Argc > 1) {
    for (int I = 1; I != Argc; ++I)
      report(Engine, Argv[I]);
    return 0;
  }
  for (const std::string &Name : allWorkloadNames())
    report(Engine, Name);
  return 0;
}
