//===- support/Metrics.h - Mergeable runtime metrics ------------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocation-free metrics for the speculative runtime: named counters,
/// gauges, and log-bucketed (HDR-style) latency/size histograms that merge
/// across processes. Children record per-chunk distributions and ship the
/// registry in the commit frame's METRICS section; the parent
/// merges child registries like trace events, adds its own validate/commit
/// latencies, and exposes the result on RunResult.
///
/// Everything is enum-indexed into fixed arrays: recording a sample is a
/// few arithmetic ops and never allocates, so the registry is safe inside
/// forked children and on the executor hot path.
///
/// The process-wide enable mirrors ALTER_TRACE: the ALTER_METRICS
/// environment variable (off/0/empty vs on/1) seeds globalMetricsEnabled(),
/// which ExecutorConfig::Metrics defaults from.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_SUPPORT_METRICS_H
#define ALTER_SUPPORT_METRICS_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace alter {

//===----------------------------------------------------------------------===
// Metric identities
//===----------------------------------------------------------------------===

/// Monotone counters (sum-merged across processes). A count that a
/// histogram below records anyway is that histogram's Count, not a counter
/// here: chunks executed are chunk_exec_ns, frames encoded serialize_ns,
/// conflict checks validate_ns and commits applied commit_ns.
enum class CounterId : unsigned {
  RingWaits, ///< ring-backpressure waits (full ring, backoff taken)
  NumCounters
};

/// High-water gauges (max-merged across processes).
enum class GaugeId : unsigned {
  PeakInflight,        ///< most chunks simultaneously in flight (parent,
                       ///< at each launch)
  PeakRingDepthBytes,  ///< deepest commit-ring backlog observed (parent,
                       ///< at each pump)
  MaxWriteLogBytes,    ///< largest single write log (child)
  NumGauges
};

/// Log-bucketed distributions. The unit is nanoseconds for *Ns ids and
/// bytes for *Bytes ids.
enum class HistogramId : unsigned {
  ChunkExecNs,        ///< child: loop-body execution per chunk
  SerializeNs,        ///< child: commit-frame encode per chunk
  ValidateWaitNs,     ///< resident child: Finish doorbell to next dispatch
  RingBackpressureNs, ///< child: waiting on a full commit ring, per chunk
  WriteLogBytes,      ///< child: write-log payload per chunk
  WireFrameBytes,     ///< child: frame header+body bytes per chunk (the
                      ///< optional trace/metrics sections are excluded —
                      ///< the registry cannot contain its own size)
  ValidateNs,         ///< parent: conflict check per chunk
  CommitNs,           ///< parent: log apply + reductions + pool push
  RunWallNs,          ///< harness: per-run wall clock (soak drivers)
  JournalFsyncNs,     ///< parent: commit-journal fdatasync latency
  JournalReplayNs,    ///< parent: journal replay (recovery) per invocation
  NumHistograms
};

/// Stable machine-readable names (snake_case, used as JSON keys and wire
/// documentation). Appending new ids is allowed; renaming is a schema
/// break that scripts/check.sh --metrics will catch.
const char *counterName(CounterId Id);
const char *gaugeName(GaugeId Id);
const char *histogramName(HistogramId Id);

//===----------------------------------------------------------------------===
// LatencyHistogram
//===----------------------------------------------------------------------===

/// Fixed 64-bucket log2 histogram: bucket k >= 1 covers [2^(k-1), 2^k),
/// bucket 0 covers the value 0, bucket 63 absorbs the tail. Alongside the
/// buckets it keeps exact Count/Sum/Min/Max, so means are exact and
/// percentiles are bucket-resolution upper bounds clamped into [Min, Max]
/// (which guarantees p50 <= p99 <= max by construction).
struct LatencyHistogram {
  static constexpr unsigned NumBuckets = 64;

  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = ~uint64_t(0);
  uint64_t Max = 0;

  static unsigned bucketIndex(uint64_t V) {
    return V == 0 ? 0u
                  : std::min(63u, static_cast<unsigned>(std::bit_width(V)));
  }

  /// Inclusive upper bound of bucket \p Index.
  static uint64_t bucketUpperBound(unsigned Index) {
    if (Index == 0)
      return 0;
    if (Index >= 63)
      return ~uint64_t(0);
    return (uint64_t(1) << Index) - 1;
  }

  void record(uint64_t V) {
    ++Buckets[bucketIndex(V)];
    ++Count;
    Sum += V;
    Min = V < Min ? V : Min;
    Max = V > Max ? V : Max;
  }

  bool empty() const { return Count == 0; }
  double mean() const {
    return Count == 0 ? 0.0
                      : static_cast<double>(Sum) / static_cast<double>(Count);
  }

  /// Value at quantile \p Q in [0, 1]: the upper bound of the bucket that
  /// contains the ceil(Q * Count)-th sample, clamped to [Min, Max]. Zero
  /// when empty.
  uint64_t percentile(double Q) const;

  /// Bucket-wise sum plus exact-stat recombination. Associative and
  /// commutative, so parent-side merge order never matters.
  void merge(const LatencyHistogram &Other);

  void reset() { *this = LatencyHistogram(); }
};

//===----------------------------------------------------------------------===
// MetricsRegistry
//===----------------------------------------------------------------------===

/// The fixed-shape registry: one slot per metric id, no allocation after
/// construction. Mergeable (counters sum, gauges max, histograms
/// bucket-sum) and serializable into the sparse METRICS wire section.
class MetricsRegistry {
public:
  void addCounter(CounterId Id, uint64_t Delta = 1) {
    Counters[static_cast<unsigned>(Id)] += Delta;
  }
  void gaugeMax(GaugeId Id, uint64_t V) {
    uint64_t &G = Gauges[static_cast<unsigned>(Id)];
    G = V > G ? V : G;
  }
  void record(HistogramId Id, uint64_t V) {
    Histograms[static_cast<unsigned>(Id)].record(V);
  }

  uint64_t counter(CounterId Id) const {
    return Counters[static_cast<unsigned>(Id)];
  }
  uint64_t gauge(GaugeId Id) const {
    return Gauges[static_cast<unsigned>(Id)];
  }
  const LatencyHistogram &histogram(HistogramId Id) const {
    return Histograms[static_cast<unsigned>(Id)];
  }

  /// True when nothing has been recorded (serializes to the minimal
  /// section).
  bool empty() const;

  /// Sum/max/bucket-sum merge. Associative and commutative.
  void merge(const MetricsRegistry &Other);

  void reset() { *this = MetricsRegistry(); }

  /// Appends the sparse wire form to \p Out: only nonzero counters/gauges
  /// and nonempty histograms (and within a histogram only nonzero buckets)
  /// are encoded, so an idle registry costs a few words. Leading element
  /// counts keep the format self-delimiting and forward-extensible.
  void serialize(std::vector<uint8_t> &Out) const;

  /// Decodes a blob produced by serialize(), merging nothing — \p Out is
  /// overwritten. The blob must be consumed exactly; any trailing or
  /// missing bytes, unknown id, or inconsistent histogram fails the decode
  /// (the wire layer surfaces that as a rejected frame).
  static bool deserialize(const uint8_t *Data, size_t Size,
                          MetricsRegistry &Out);

private:
  uint64_t Counters[static_cast<unsigned>(CounterId::NumCounters)] = {};
  uint64_t Gauges[static_cast<unsigned>(GaugeId::NumGauges)] = {};
  LatencyHistogram
      Histograms[static_cast<unsigned>(HistogramId::NumHistograms)];
};

//===----------------------------------------------------------------------===
// Process-wide enable
//===----------------------------------------------------------------------===

/// Seeded from the ALTER_METRICS environment variable on first use
/// (off/0/empty => disabled, on/1 => enabled; anything else is a fatal
/// config error). ExecutorConfig::Metrics defaults from this.
bool globalMetricsEnabled();
void setGlobalMetricsEnabled(bool Enabled);

} // namespace alter

#endif // ALTER_SUPPORT_METRICS_H
