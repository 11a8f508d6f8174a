//===- support/Trace.h - Event tracing and structured logging ---*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead event tracing and structured logging for the speculative
/// executors. Three pieces live here, below the runtime layer so both the
/// parent-side executors and the forked children can use them:
///
///  - TraceLevel / TraceBuffer: a bounded in-process buffer of fixed-size
///    timestamped events. Children record chunk-lifecycle events into a
///    buffer shipped to the parent inside the commit message's TRACE
///    section; parents record fork/poll/validate/retire events and merge
///    the two into the per-run timeline (runtime/TraceSink.h).
///
///  - A trace clock (traceNowNs) that is the real monotonic clock by
///    default but can be switched to a seeded deterministic counter, so
///    tests can assert byte-stable event sequences.
///
///  - A leveled structured logger (ALTER_LOG) emitting one key=value line
///    per event to stderr, replacing ad-hoc fprintf diagnostics so
///    parent-side failures are machine-parseable.
///
/// Region labels: workloads and benchmarks may label address ranges
/// (traceLabelRegion) so conflict attribution can name the object — "which
/// datum made this annotation misspeculate" — instead of printing a raw
/// granule address.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_SUPPORT_TRACE_H
#define ALTER_SUPPORT_TRACE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace alter {

/// How much the runtime records. Off must leave the hot paths with nothing
/// but a predictable branch; Counters adds cheap per-event aggregation
/// (conflict attribution); Events additionally records the full timeline.
enum class TraceLevel : uint8_t {
  Off,      ///< no tracing; zero-cost guards only
  Counters, ///< aggregate counters + conflict attribution, no timeline
  Events,   ///< full timestamped event timeline (Chrome-trace exportable)
};

/// Returns "off", "counters", or "events".
const char *traceLevelName(TraceLevel Level);

/// Parses "off"/"counters"/"events" (case-insensitive). Returns false and
/// leaves \p Level untouched on anything else.
bool parseTraceLevel(const std::string &Text, TraceLevel &Level);

/// The process-wide trace level: initialized from the ALTER_TRACE
/// environment variable on first use (aborts on a malformed value — a
/// tracing typo must not silently become an untraced run), overridable by
/// setGlobalTraceLevel. ExecutorConfig captures this at construction.
TraceLevel globalTraceLevel();

/// Overrides the global trace level (benchmark --trace flag, tests).
void setGlobalTraceLevel(TraceLevel Level);

//===----------------------------------------------------------------------===
// Event taxonomy
//===----------------------------------------------------------------------===

/// What happened. Child-side kinds travel over the wire TRACE section;
/// parent-side kinds are recorded directly into the run's sink.
enum class TraceEventKind : uint8_t {
  // Child-side (inside the forked transaction).
  ChunkStart,    ///< body execution begins; Arg0/Arg1 = first/last iteration
  ChunkExec,     ///< body execution complete; Dur = work time,
                 ///< Arg0/Arg1 = read/write-set words
  Serialize,     ///< commit-message serialization; Arg0 = payload bytes
  CommitAttempt, ///< message written to the commit pipe; Arg0 = wire bytes
  // Parent-side (executor event loop).
  Fork,           ///< child forked for a chunk; Arg0 = worker slot
  PollWake,       ///< poll() returned, or the threaded lock-step engine's
                  ///< round barrier released; Dur = wait, Arg0 = ready
                  ///< fds (workers), Arg1 = chunks in flight
  Validate,       ///< conflict check ran; Arg0 = 1 on conflict,
                  ///< Arg1 = witness word key (0 when none)
  Commit,         ///< chunk retired into committed state
  Retry,          ///< chunk requeued after failed validation
  FaultContained, ///< infrastructure fault absorbed; chunk requeued
  RoundBarrier,   ///< round-barrier engines: one validation round ended
  Recovery,       ///< sequential fallback ran; Arg0 = iterations recovered
  // Degradation ladder (RecoveringLoopRunner).
  Salvage,    ///< tier 1: solo re-execution of the indicted chunk;
              ///< Arg0 = attempt number, Arg1 = iterations in the chunk
  Bisect,     ///< tier 2: a failing range was split; Arg0/Arg1 =
              ///< first/last iteration of the range being bisected
  Quarantine, ///< tier 3: poisoned iterations ran sequentially;
              ///< Arg0 = iterations quarantined
  // Stage pipelining (StagePipelineExecutor + schedule planner).
  StageDispatch, ///< a chunk's token record was queued to a stage worker;
                 ///< Arg0 = record bytes, Arg1 = tokens carried
  StageRetire,   ///< both stage halves of a chunk committed in order;
                 ///< Arg0 = sequential-half ns, Arg1 = parallel-half ns
  StageStall,    ///< the stage feed blocked (all replicas busy or the
                 ///< retirement frontier starved); Arg0 = in-flight chunks
  SchedulePick,  ///< the planner chose a schedule; Arg0/Arg1 = estimated
                 ///< chunked/staged ns (0 = not estimated)
  ResourceFault, ///< an environment resource failure was contained instead
                 ///< of aborting; Arg0 = site (0 ring mmap, 1 pipe setup,
                 ///< 2 fork, 3 dispatch write)
  Downgrade,     ///< the run retreated a rung: Arg0 = 0 for a transport
                 ///< downgrade (ring -> cold pipe), 1 for a parallelism
                 ///< downgrade; Arg1 = the new effective worker count (or
                 ///< 0 for transport)
  Interrupt,     ///< a shutdown signal stopped the run; Arg0 = chunks
                 ///< committed when the executor wound down
};

/// Number of event kinds; bounds wire decoding and per-kind count arrays.
constexpr size_t NumTraceEventKinds =
    static_cast<size_t>(TraceEventKind::Interrupt) + 1;

/// Short stable name ("chunk_exec", "validate", ...). Used by both the
/// Chrome exporter and the text summary.
const char *traceEventKindName(TraceEventKind Kind);

/// One timeline event. Fixed-size and trivially copyable: the wire TRACE
/// section ships these verbatim (6 little-endian u64 slots, see
/// runtime/TxnWire.cpp).
struct TraceEvent {
  uint64_t StartNs = 0; ///< traceNowNs() at event start
  uint64_t DurNs = 0;   ///< 0 for instant events
  int64_t Chunk = -1;   ///< chunk index, -1 when not chunk-scoped
  uint64_t Arg0 = 0;    ///< kind-specific (see TraceEventKind)
  uint64_t Arg1 = 0;    ///< kind-specific
  uint32_t Worker = 0;  ///< worker slot (0 = parent/sequential track)
  TraceEventKind Kind = TraceEventKind::ChunkStart;

  bool operator==(const TraceEvent &Other) const = default;
};

/// Bounded event buffer. record() is a no-op below Events level; past the
/// capacity events are counted as dropped instead of growing the buffer —
/// a trace must never turn into the memory blowup it is diagnosing.
class TraceBuffer {
public:
  explicit TraceBuffer(TraceLevel Level, size_t Capacity = DefaultCapacity)
      : Level(Level), Capacity(Capacity) {}

  /// True when the buffer records a timeline.
  bool events() const { return Level >= TraceLevel::Events; }

  /// True when at least aggregate counters are on.
  bool counters() const { return Level >= TraceLevel::Counters; }

  TraceLevel level() const { return Level; }

  /// Records one event (no-op below Events level or past capacity).
  void record(TraceEventKind Kind, uint32_t Worker, int64_t Chunk,
              uint64_t StartNs, uint64_t DurNs = 0, uint64_t Arg0 = 0,
              uint64_t Arg1 = 0) {
    if (Level < TraceLevel::Events)
      return;
    if (Buf.size() >= Capacity) {
      ++Dropped;
      return;
    }
    Buf.push_back({StartNs, DurNs, Chunk, Arg0, Arg1, Worker, Kind});
  }

  const std::vector<TraceEvent> &buffer() const { return Buf; }
  std::vector<TraceEvent> take() { return std::move(Buf); }
  uint64_t dropped() const { return Dropped; }

  /// Default bound: 64k events ≈ 3 MiB. Generous enough that a bench run
  /// never drops, small enough to be harmless always-on.
  static constexpr size_t DefaultCapacity = 1 << 16;

private:
  TraceLevel Level;
  size_t Capacity;
  std::vector<TraceEvent> Buf;
  uint64_t Dropped = 0;
};

//===----------------------------------------------------------------------===
// Trace clock
//===----------------------------------------------------------------------===

/// Timestamp source for trace events: the real monotonic clock, unless the
/// deterministic mode is armed, in which case each call returns the seeded
/// counter advanced by a fixed tick. Forked children inherit the counter
/// at its fork-time value, so a chunk's child-side timestamps depend only
/// on (seed, events recorded before fork, events in the chunk) — identical
/// seeded runs produce byte-identical traces.
uint64_t traceNowNs();

/// The trace timestamp of an instant read earlier with nowNs(), for events
/// measured where the trace clock must not be touched (a worker thread of
/// the threaded lock-step engine): \p RealNs itself under the real clock,
/// the next tick under the deterministic one, so seeded runs stay
/// byte-stable. Call it on the thread that owns the trace clock.
uint64_t traceStampNs(uint64_t RealNs);

/// Arms the deterministic trace clock at \p Seed (tick = 1000 ns/event).
void setDeterministicTraceClock(uint64_t Seed);

/// Restores the real monotonic clock.
void clearDeterministicTraceClock();

//===----------------------------------------------------------------------===
// Region labels (allocation-site attribution)
//===----------------------------------------------------------------------===

/// Registers the half-open byte range [Base, Base + Bytes) under \p Label.
/// Later registrations win on overlap. The registry is process-global and
/// inherited by forked children; labeling is O(log n) and read-only after
/// setup, so workloads label their arrays once in setUp().
void traceLabelRegion(const void *Base, size_t Bytes, const std::string &Label);

/// Drops every registered label (tests, workload re-setup).
void traceClearRegionLabels();

/// Resolves an AccessSet word key (byte address >> 3) to "label[+0xoff]",
/// or "0x<address>" when no registered region covers it.
std::string traceLabelForWordKey(uintptr_t WordKey);

//===----------------------------------------------------------------------===
// Structured leveled logging (ALTER_LOG)
//===----------------------------------------------------------------------===

/// Logger verbosity, parsed from ALTER_LOG ("off" is the default: library
/// code must stay silent unless asked).
enum class LogLevel : uint8_t { Off, Error, Warn, Info, Debug };

/// Returns "off", "error", "warn", "info", or "debug".
const char *logLevelName(LogLevel Level);

/// The process-wide log threshold (ALTER_LOG, overridable).
LogLevel globalLogLevel();
void setGlobalLogLevel(LogLevel Level);

/// True when a message at \p Level would be emitted — guard any expensive
/// argument formatting on this.
bool logEnabled(LogLevel Level);

/// Emits one structured line to stderr:
///   alter level=<level> sub=<subsystem> <printf-formatted message>
/// The message should itself be key=value pairs ("chunk=3 why=\"...\"") so
/// the whole line stays machine-parseable.
void alterLog(LogLevel Level, const char *Subsystem, const char *Fmt, ...)
    __attribute__((format(printf, 3, 4)));

/// Like alterLog but bypasses the ALTER_LOG threshold: the line is always
/// emitted. For diagnostics that must never be silenced (fatal errors,
/// command-line misuse) while still keeping the structured one-line format.
void alterLogAlways(LogLevel Level, const char *Subsystem, const char *Fmt,
                    ...) __attribute__((format(printf, 3, 4)));

} // namespace alter

#endif // ALTER_SUPPORT_TRACE_H
