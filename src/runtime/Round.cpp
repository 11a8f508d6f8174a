//===- runtime/Round.cpp --------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Round.h"

#include "support/FaultInjection.h"
#include "support/Timer.h"

using namespace alter;

bool alter::retireRound(std::vector<RoundTxn> &Round,
                        ConflictDetector &Detector, TraceSink &Sink,
                        const ExecutorConfig &Config, RunResult &Result,
                        std::deque<int64_t> &Pending,
                        const std::function<void(unsigned)> &Commit,
                        const std::function<bool(unsigned)> &Fault) {
  const bool InOrder =
      Config.Params.CommitOrder == CommitOrderPolicy::InOrder;
  Detector.resetRound();
  bool InOrderBroken = false;
  std::vector<int64_t> Retried;
  for (unsigned W = 0; W != Round.size(); ++W) {
    RoundTxn &T = Round[W];
    if (!T.Reads) {
      if (!Fault(W))
        return false;
      InOrderBroken |= InOrder;
      Retried.push_back(T.Chunk);
      continue;
    }
    const uint64_t WordsBefore = Detector.wordsChecked();
    const uint64_t ValT0 = Sink.events() ? traceNowNs() : 0;
    const uint64_t ValR0 = Config.Metrics ? nowNs() : 0;
    faultParentKillPoint(); // crash-restart: parent dies at validate
    // A broken in-order prefix fails the chunk without running (and
    // without charging for) a conflict check.
    const bool Failed =
        InOrderBroken || Detector.hasConflict(*T.Reads, *T.Writes);
    const uintptr_t Witness =
        InOrderBroken ? 0 : Detector.lastConflictWord();
    T.Cost.CheckWords = Detector.wordsChecked() - WordsBefore;
    if (Config.Metrics) {
      Result.Metrics.record(HistogramId::ValidateNs, nowNs() - ValR0);
      Result.Metrics.addCounter(CounterId::ParentValidates);
    }
    if (Sink.events())
      Sink.event(TraceEventKind::Validate, /*Worker=*/0, T.Chunk, ValT0,
                 traceNowNs() - ValT0, /*Arg0=*/Failed ? 1 : 0,
                 /*Arg1=*/Witness);
    if (Failed) {
      ++Result.Stats.NumRetries;
      if (Sink.counters())
        Sink.conflict(T.Chunk, Witness);
      if (Sink.events())
        Sink.event(TraceEventKind::Retry, /*Worker=*/0, T.Chunk,
                   traceNowNs());
      InOrderBroken |= InOrder;
      Retried.push_back(T.Chunk);
      continue;
    }
    ++Result.Stats.NumCommitted;
    T.Cost.Committed = true;
    Detector.recordCommit(*T.Writes);
    Commit(W);
  }
  Pending.insert(Pending.begin(), Retried.begin(), Retried.end());

  std::vector<TxnCost> RoundCosts;
  RoundCosts.reserve(Round.size());
  for (const RoundTxn &T : Round)
    RoundCosts.push_back(T.Cost);
  Result.Stats.SimTimeNs +=
      CostModel::calibrated().roundNs(RoundCosts, Config.NumWorkers);
  if (Sink.events())
    Sink.event(TraceEventKind::RoundBarrier, /*Worker=*/0, /*Chunk=*/-1,
               traceNowNs(), 0, /*Arg0=*/Result.Stats.NumRounds);
  return true;
}
