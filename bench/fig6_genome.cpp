//===- bench/fig6_genome.cpp - Reproduce Figure 6 -------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 6: Genome speedup vs processors under TLS, OutOfOrder, and
/// StaleReads. Shape: all three scale; StaleReads > OutOfOrder ≈ TLS,
/// because snapshot isolation skips the read instrumentation of the
/// bucket-chain probes (§7.2; up to ~4.5x at 8 cores in the paper).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace alter;
using namespace alter::bench;

int main(int argc, char **argv) {
  initBenchArgs(argc, argv);
  printHeader("Figure 6", "Genome speedup vs processors (bench input)");
  const size_t Input = 1;
  const uint64_t SeqNs = measureSequentialNs("genome", Input);

  std::unique_ptr<Workload> W = makeWorkload("genome");
  const int Cf = W->defaultChunkFactor();
  const RuntimeParams Stale =
      W->resolveAnnotation(*parseAnnotation("[StaleReads]"));
  const std::vector<SweepSeries> Series = {
      runSweep("genome", Input, paramsForSequentialSpeculation(Cf), "TLS",
               SeqNs),
      runSweep("genome", Input,
               W->resolveAnnotation(*parseAnnotation("[OutOfOrder]")),
               "OutOfOrder", SeqNs),
      runSweep("genome", Input, Stale, "StaleReads", SeqNs),
  };
  printFigure("Genome (duplicate-segment removal)", Series,
              "StaleReads > OutOfOrder >= TLS; StaleReads reaches ~4.5x at "
              "8 cores; TLS nearly matches OutOfOrder");
  if (traceRequested() || profileRequested() || metricsRequested()) {
    // The sweep's lock-step engine is thread-based and ships no child
    // frames, so the representative run for --trace / --profile /
    // --metrics-json is a recovering Pipeline-engine run at the figure's
    // top processor count.
    std::unique_ptr<Workload> Rep = makeWorkload("genome");
    Rep->setUp(Input);
    const RunResult R = Rep->runRecovering(ParallelEngine::Pipeline, Stale,
                                           paperProcessorCounts().back());
    maybeWriteTraceReport(R);
    maybeWriteMetricsReport(R);
  }
  finalizeBenchJson();
  return 0;
}
