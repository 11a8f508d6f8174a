//===- bench/fig7_ssca2.cpp - Reproduce Figure 7 --------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 7: SSCA2 speedup vs processors under OutOfOrder and StaleReads
/// (TLS fails inference for this loop — cascading in-order aborts on hub
/// conflicts). Shape: both scale; StaleReads wins by skipping read
/// tracking.
///
/// Extended beyond the paper with (a) a "staged" column — the schedule
/// SchedulePolicy::Auto gives this loop, because it declares a stage split:
/// the PS-DSWP stage pipeline moves the fill-cursor chain into a sequential
/// lane and replicates the edge-weight computation, so hub conflicts cost
/// it nothing — and (b) both graph scales: the smaller graph concentrates
/// updates on the R-MAT hubs, where chunked speculation burns ~30% of its
/// work on aborts while the pipeline is unaffected.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace alter;
using namespace alter::bench;

int main(int argc, char **argv) {
  initBenchArgs(argc, argv);
  printHeader("Figure 7", "SSCA2 speedup vs processors (both graph scales)");
  const struct {
    size_t Input;
    const char *Title;
    const char *Note;
  } Graphs[] = {
      {0, "SSCA2 scale 11 (hub-dense, adjacency scatter)",
       "chunked speculation loses ~30% to hub aborts; the stage pipeline "
       "carries the cursor chain sequentially and is immune"},
      {1, "SSCA2 scale 13 (bench input, adjacency scatter)",
       "both models scale; StaleReads > OutOfOrder (read sets of 6340 vs "
       "277 words/txn in the paper's Table 4)"},
  };
  for (const auto &G : Graphs) {
    const uint64_t SeqNs = measureSequentialNs("ssca2", G.Input);
    std::unique_ptr<Workload> W = makeWorkload("ssca2");
    const RuntimeParams Stale =
        W->resolveAnnotation(*parseAnnotation("[StaleReads]"));
    const std::vector<SweepSeries> Series = {
        runSweep("ssca2", G.Input,
                 W->resolveAnnotation(*parseAnnotation("[OutOfOrder]")),
                 "OutOfOrder", SeqNs),
        runSweep("ssca2", G.Input, Stale, "StaleReads", SeqNs),
        runScheduledSweep("ssca2", G.Input, Stale, "staged", SeqNs),
    };
    printFigure(G.Title, Series, G.Note);
  }
  if (traceRequested() || profileRequested() || metricsRequested()) {
    // The sweep's lock-step engine is thread-based and ships no child
    // frames, so the representative run for --trace / --profile /
    // --metrics-json is a recovering Pipeline-engine run on the bench
    // input at the figure's top processor count.
    std::unique_ptr<Workload> Rep = makeWorkload("ssca2");
    Rep->setUp(1);
    const RuntimeParams Stale =
        Rep->resolveAnnotation(*parseAnnotation("[StaleReads]"));
    const RunResult R = Rep->runRecovering(ParallelEngine::Pipeline, Stale,
                                           paperProcessorCounts().back());
    maybeWriteTraceReport(R);
    maybeWriteMetricsReport(R);
  }
  finalizeBenchJson();
  return 0;
}
