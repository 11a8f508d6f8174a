//===- bench/fig10_floyd.cpp - Reproduce Figure 10 ------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 10: Floyd-Warshall speedup vs processors under StaleReads.
/// Shape: scales to ~2.5-3x; no conflicts occur (rows are disjoint write
/// sets) and the output is exact despite the broken RAW chain through
/// row k.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/Format.h"

#include <cstdio>

using namespace alter;
using namespace alter::bench;

int main(int argc, char **argv) {
  initBenchArgs(argc, argv);
  printHeader("Figure 10", "Floyd-Warshall speedup vs processors");
  const size_t Input = 1;
  const uint64_t SeqNs = measureSequentialNs("floyd", Input);
  std::unique_ptr<Workload> W = makeWorkload("floyd");
  const SweepSeries Alter =
      runSweep("floyd", Input, W->resolveAnnotation(*W->paperAnnotation()),
               "ALTER floyd", SeqNs);
  printFigure("Floyd-Warshall (StaleReads)", {Alter},
              "scales to ~2.5x; zero conflicts; exact output");
  std::printf("\nretry rate at 4 workers: %s (paper: 0%%)\n",
              formatPercent(Alter.Points[2].Stats.retryRate()).c_str());
  finalizeBenchJson();
  return 0;
}
