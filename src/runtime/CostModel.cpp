//===- runtime/CostModel.cpp ----------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/CostModel.h"

#include "support/Timer.h"

#include <algorithm>
#include <cstring>
#include <vector>

using namespace alter;

uint64_t CostModel::roundNs(const std::vector<TxnCost> &Txns,
                            unsigned NumWorkers) const {
  if (Txns.empty())
    return 0;
  // One chunk per worker per round: worker w executes Txns[w].
  uint64_t ComputeNs = 0;
  uint64_t TotalBytes = 0;
  double CommitNs = 0.0;
  for (const TxnCost &T : Txns) {
    ComputeNs = std::max(ComputeNs, T.WorkNs);
    TotalBytes += T.BytesTouched;
    CommitNs += static_cast<double>(T.CheckWords) * CheckNsPerWord;
    if (T.Committed)
      CommitNs += static_cast<double>(T.CommitBytes) * CommitNsPerByte;
  }
  const double BandwidthNs =
      static_cast<double>(TotalBytes) / BandwidthBytesPerNs;
  const double ExecNs =
      std::max(static_cast<double>(ComputeNs), BandwidthNs);
  const double SyncNs =
      BarrierNs + ResyncNsPerWorker * static_cast<double>(NumWorkers);
  return static_cast<uint64_t>(ExecNs + CommitNs + SyncNs);
}

static CostModel calibrate() {
  CostModel Model;
  // Measure memcpy bandwidth on a buffer large enough to spill L2 but small
  // enough to stay cheap; it anchors both the commit copy cost and the
  // shared bandwidth ceiling.
  constexpr size_t Bytes = 8 << 20;
  std::vector<char> Src(Bytes, 1);
  std::vector<char> Dst(Bytes, 0);
  const uint64_t Start = nowNs();
  constexpr int Reps = 4;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    std::memcpy(Dst.data(), Src.data(), Bytes);
    // Prevent the copies from being optimized away.
    Src[static_cast<size_t>(Rep)] = Dst[Bytes - 1 - static_cast<size_t>(Rep)];
  }
  const uint64_t Elapsed = std::max<uint64_t>(nowNs() - Start, 1);
  const double BytesPerNs =
      static_cast<double>(Bytes) * Reps / static_cast<double>(Elapsed);
  // Commits copy at the single-stream rate; the aggregate ceiling for
  // concurrent workers is ~2.5x one stream (typical DDR headroom over a
  // single core).
  const double SingleStream = std::max(BytesPerNs, 0.5);
  Model.CommitNsPerByte = 1.0 / SingleStream;
  Model.BandwidthBytesPerNs = SingleStream * 2.5;
  return Model;
}

const CostModel &CostModel::calibrated() {
  static const CostModel Model = calibrate();
  return Model;
}
