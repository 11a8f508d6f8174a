//===- runtime/TraceSink.h - Per-run telemetry collection -------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TraceSink is the parent-side collection point for one executor run: the
/// executors record their own events (fork, poll wakeups, validation,
/// retirement, retries, fault containment) and absorb the child-side events
/// shipped in each commit message's TRACE section. finish() moves them into
/// the RunResult, whose exporters (writeChromeTrace / traceSummary,
/// implemented here) derive the counter tracks and the conflict attribution
/// from the merged timeline and turn it into a Perfetto-loadable JSON file
/// or a human-readable attribution report.
///
/// At TraceLevel::Off every entry point reduces to a predictable branch on
/// a member byte.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_TRACESINK_H
#define ALTER_RUNTIME_TRACESINK_H

#include "runtime/RunResult.h"
#include "support/Trace.h"

namespace alter {

/// Collects one run's events (see file comment).
class TraceSink {
public:
  explicit TraceSink(TraceLevel Level) : Buf(Level) {}

  /// True when the timeline is being recorded.
  bool events() const { return Buf.events(); }

  /// Records one parent-side event (no-op below Events).
  void event(TraceEventKind Kind, uint32_t Worker, int64_t Chunk,
             uint64_t StartNs, uint64_t DurNs = 0, uint64_t Arg0 = 0,
             uint64_t Arg1 = 0) {
    Buf.record(Kind, Worker, Chunk, StartNs, DurNs, Arg0, Arg1);
  }

  /// Appends the child-side events shipped in one commit message.
  void absorbChild(const std::vector<TraceEvent> &ChildEvents) {
    if (!Buf.events())
      return;
    for (const TraceEvent &E : ChildEvents)
      Buf.record(E.Kind, E.Worker, E.Chunk, E.StartNs, E.DurNs, E.Arg0,
                 E.Arg1);
  }

  /// Moves the collected timeline into \p Result.
  void finish(RunResult &Result);

private:
  TraceBuffer Buf;
};

/// Sum of DurNs over events of \p Kind on worker tracks > 0. The bench
/// smoke uses this to check the exported per-slot tracks cover the run's
/// WorkerBusyNs.
uint64_t traceTotalDurNs(const std::vector<TraceEvent> &Events,
                         TraceEventKind Kind);

} // namespace alter

#endif // ALTER_RUNTIME_TRACESINK_H
