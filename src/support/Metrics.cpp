//===- support/Metrics.cpp ------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/Error.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace alter;

//===----------------------------------------------------------------------===
// Names
//===----------------------------------------------------------------------===

const char *alter::counterName(CounterId Id) {
  switch (Id) {
  case CounterId::RingWaits:
    return "ring_waits";
  case CounterId::NumCounters:
    break;
  }
  ALTER_UNREACHABLE("covered switch");
}

const char *alter::gaugeName(GaugeId Id) {
  switch (Id) {
  case GaugeId::PeakInflight:
    return "peak_inflight";
  case GaugeId::PeakRingDepthBytes:
    return "peak_ring_depth_bytes";
  case GaugeId::MaxWriteLogBytes:
    return "max_write_log_bytes";
  case GaugeId::NumGauges:
    break;
  }
  ALTER_UNREACHABLE("covered switch");
}

const char *alter::histogramName(HistogramId Id) {
  switch (Id) {
  case HistogramId::ChunkExecNs:
    return "chunk_exec_ns";
  case HistogramId::SerializeNs:
    return "serialize_ns";
  case HistogramId::ValidateWaitNs:
    return "validate_wait_ns";
  case HistogramId::RingBackpressureNs:
    return "ring_backpressure_ns";
  case HistogramId::WriteLogBytes:
    return "write_log_bytes";
  case HistogramId::WireFrameBytes:
    return "wire_frame_bytes";
  case HistogramId::ValidateNs:
    return "validate_ns";
  case HistogramId::CommitNs:
    return "commit_ns";
  case HistogramId::RunWallNs:
    return "run_wall_ns";
  case HistogramId::JournalFsyncNs:
    return "journal_fsync_ns";
  case HistogramId::JournalReplayNs:
    return "journal_replay_ns";
  case HistogramId::NumHistograms:
    break;
  }
  ALTER_UNREACHABLE("covered switch");
}

//===----------------------------------------------------------------------===
// LatencyHistogram
//===----------------------------------------------------------------------===

uint64_t LatencyHistogram::percentile(double Q) const {
  if (Count == 0)
    return 0;
  if (Q < 0.0)
    Q = 0.0;
  if (Q > 1.0)
    Q = 1.0;
  // The rank of the wanted sample, 1-based; ceil without FP edge cases.
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Count));
  if (static_cast<double>(Rank) < Q * static_cast<double>(Count) ||
      Rank == 0)
    ++Rank;
  if (Rank > Count)
    Rank = Count;
  uint64_t Seen = 0;
  for (unsigned I = 0; I != NumBuckets; ++I) {
    Seen += Buckets[I];
    if (Seen >= Rank) {
      uint64_t V = bucketUpperBound(I);
      // Clamping into the exact [Min, Max] envelope keeps the reported
      // quantiles ordered (p50 <= p99 <= max) and never outside observed
      // values, despite the log-bucket resolution.
      V = V < Min ? Min : V;
      V = V > Max ? Max : V;
      return V;
    }
  }
  return Max;
}

void LatencyHistogram::merge(const LatencyHistogram &Other) {
  if (Other.Count == 0)
    return;
  for (unsigned I = 0; I != NumBuckets; ++I)
    Buckets[I] += Other.Buckets[I];
  Count += Other.Count;
  Sum += Other.Sum;
  Min = Other.Min < Min ? Other.Min : Min;
  Max = Other.Max > Max ? Other.Max : Max;
}

//===----------------------------------------------------------------------===
// MetricsRegistry
//===----------------------------------------------------------------------===

bool MetricsRegistry::empty() const {
  for (uint64_t C : Counters)
    if (C != 0)
      return false;
  for (uint64_t G : Gauges)
    if (G != 0)
      return false;
  for (const LatencyHistogram &H : Histograms)
    if (!H.empty())
      return false;
  return true;
}

void MetricsRegistry::merge(const MetricsRegistry &Other) {
  for (unsigned I = 0; I != static_cast<unsigned>(CounterId::NumCounters);
       ++I)
    Counters[I] += Other.Counters[I];
  for (unsigned I = 0; I != static_cast<unsigned>(GaugeId::NumGauges); ++I)
    Gauges[I] = Other.Gauges[I] > Gauges[I] ? Other.Gauges[I] : Gauges[I];
  for (unsigned I = 0;
       I != static_cast<unsigned>(HistogramId::NumHistograms); ++I)
    Histograms[I].merge(Other.Histograms[I]);
}

namespace {

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

/// Bounds-checked little-endian u64 reader over the METRICS blob.
struct BlobReader {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;

  bool u64(uint64_t &V) {
    if (Size - Pos < 8)
      return false;
    V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return true;
  }
  bool exhausted() const { return Pos == Size; }
};

} // namespace

void MetricsRegistry::serialize(std::vector<uint8_t> &Out) const {
  // Counters: count, then (id, value) pairs for nonzero entries.
  uint64_t N = 0;
  for (uint64_t C : Counters)
    N += C != 0;
  putU64(Out, N);
  for (unsigned I = 0; I != static_cast<unsigned>(CounterId::NumCounters);
       ++I)
    if (Counters[I] != 0) {
      putU64(Out, I);
      putU64(Out, Counters[I]);
    }
  // Gauges: same shape.
  N = 0;
  for (uint64_t G : Gauges)
    N += G != 0;
  putU64(Out, N);
  for (unsigned I = 0; I != static_cast<unsigned>(GaugeId::NumGauges); ++I)
    if (Gauges[I] != 0) {
      putU64(Out, I);
      putU64(Out, Gauges[I]);
    }
  // Histograms: count, then per nonempty histogram the exact stats and the
  // nonzero (bucket, count) pairs.
  N = 0;
  for (const LatencyHistogram &H : Histograms)
    N += !H.empty();
  putU64(Out, N);
  for (unsigned I = 0;
       I != static_cast<unsigned>(HistogramId::NumHistograms); ++I) {
    const LatencyHistogram &H = Histograms[I];
    if (H.empty())
      continue;
    putU64(Out, I);
    putU64(Out, H.Count);
    putU64(Out, H.Sum);
    putU64(Out, H.Min);
    putU64(Out, H.Max);
    uint64_t NB = 0;
    for (uint64_t B : H.Buckets)
      NB += B != 0;
    putU64(Out, NB);
    for (unsigned B = 0; B != LatencyHistogram::NumBuckets; ++B)
      if (H.Buckets[B] != 0) {
        putU64(Out, B);
        putU64(Out, H.Buckets[B]);
      }
  }
}

bool MetricsRegistry::deserialize(const uint8_t *Data, size_t Size,
                                  MetricsRegistry &Out) {
  Out.reset();
  BlobReader R{Data, Size};
  uint64_t N = 0;
  if (!R.u64(N) || N > static_cast<unsigned>(CounterId::NumCounters))
    return false;
  for (uint64_t I = 0; I != N; ++I) {
    uint64_t Id = 0, V = 0;
    if (!R.u64(Id) || !R.u64(V) ||
        Id >= static_cast<unsigned>(CounterId::NumCounters))
      return false;
    Out.Counters[Id] = V;
  }
  if (!R.u64(N) || N > static_cast<unsigned>(GaugeId::NumGauges))
    return false;
  for (uint64_t I = 0; I != N; ++I) {
    uint64_t Id = 0, V = 0;
    if (!R.u64(Id) || !R.u64(V) ||
        Id >= static_cast<unsigned>(GaugeId::NumGauges))
      return false;
    Out.Gauges[Id] = V;
  }
  if (!R.u64(N) || N > static_cast<unsigned>(HistogramId::NumHistograms))
    return false;
  for (uint64_t I = 0; I != N; ++I) {
    uint64_t Id = 0;
    if (!R.u64(Id) ||
        Id >= static_cast<unsigned>(HistogramId::NumHistograms))
      return false;
    LatencyHistogram &H = Out.Histograms[Id];
    uint64_t NB = 0;
    if (!R.u64(H.Count) || !R.u64(H.Sum) || !R.u64(H.Min) ||
        !R.u64(H.Max) || !R.u64(NB) || NB > LatencyHistogram::NumBuckets)
      return false;
    uint64_t BucketTotal = 0;
    for (uint64_t B = 0; B != NB; ++B) {
      uint64_t Idx = 0, C = 0;
      if (!R.u64(Idx) || !R.u64(C) || Idx >= LatencyHistogram::NumBuckets)
        return false;
      H.Buckets[Idx] = C;
      BucketTotal += C;
    }
    // A histogram whose buckets disagree with its Count (or an "empty"
    // histogram smuggled into the nonempty list) is a corrupt frame.
    if (BucketTotal != H.Count || H.Count == 0 || H.Min > H.Max)
      return false;
  }
  return R.exhausted();
}

//===----------------------------------------------------------------------===
// Process-wide enable
//===----------------------------------------------------------------------===

namespace {

bool metricsEnabledFromEnv() {
  const char *Env = std::getenv("ALTER_METRICS");
  if (!Env || !*Env)
    return false;
  std::string Lower;
  for (const char *P = Env; *P; ++P)
    Lower += static_cast<char>(std::tolower(static_cast<unsigned char>(*P)));
  if (Lower == "off" || Lower == "0")
    return false;
  if (Lower == "on" || Lower == "1")
    return true;
  // Startup config validation, like ALTER_TRACE: guessing would silently
  // drop the telemetry the operator asked for.
  fatalError(std::string("malformed ALTER_METRICS value: ") + Env);
}

bool &globalMetricsStorage() {
  static bool Enabled = metricsEnabledFromEnv();
  return Enabled;
}

} // namespace

bool alter::globalMetricsEnabled() { return globalMetricsStorage(); }

void alter::setGlobalMetricsEnabled(bool Enabled) {
  globalMetricsStorage() = Enabled;
}
