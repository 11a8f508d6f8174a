//===- runtime/TraceSink.cpp ----------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/TraceSink.h"

#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

using namespace alter;

void TraceSink::finish(RunResult &Result) {
  Result.TraceEventsDropped += Buf.dropped();
  if (!Buf.events())
    return;
  std::vector<TraceEvent> Events = Buf.take();
  if (Result.TraceEvents.empty())
    Result.TraceEvents = std::move(Events);
  else
    Result.TraceEvents.insert(Result.TraceEvents.end(), Events.begin(),
                              Events.end());
}

uint64_t alter::traceTotalDurNs(const std::vector<TraceEvent> &Events,
                                TraceEventKind Kind) {
  uint64_t Total = 0;
  for (const TraceEvent &E : Events)
    if (E.Kind == Kind && E.Worker > 0)
      Total += E.DurNs;
  return Total;
}

//===----------------------------------------------------------------------===
// RunResult exporters
//===----------------------------------------------------------------------===

void RunResult::mergeTrace(const RunResult &Other) {
  TraceEvents.insert(TraceEvents.end(), Other.TraceEvents.begin(),
                     Other.TraceEvents.end());
  TraceEventsDropped += Other.TraceEventsDropped;
}

bool RunResult::writeChromeTrace(const std::string &Path,
                                 std::string *Error) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    if (Error)
      *Error = "cannot open trace output path " + Path;
    return false;
  }

  // Normalize timestamps to the earliest event so the timeline starts at 0
  // regardless of the clock's epoch.
  uint64_t Base = ~uint64_t(0);
  for (const TraceEvent &E : TraceEvents)
    Base = std::min(Base, E.StartNs);
  if (Base == ~uint64_t(0))
    Base = 0;

  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool First = true;
  const auto Sep = [&]() -> const char * {
    if (First) {
      First = false;
      return "\n";
    }
    return ",\n";
  };

  // One named track per worker slot (tid = slot index, 0 = the parent).
  std::set<uint32_t> Workers;
  for (const TraceEvent &E : TraceEvents)
    Workers.insert(E.Worker);
  for (uint32_t W : Workers) {
    const std::string Name = W == 0 ? "parent" : strprintf("worker %u", W);
    std::fprintf(F,
                 "%s  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                 "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                 Sep(), W, Name.c_str());
  }

  for (const TraceEvent &E : TraceEvents) {
    const double TsUs = static_cast<double>(E.StartNs - Base) / 1000.0;
    if (E.DurNs != 0)
      std::fprintf(
          F,
          "%s  {\"name\": \"%s\", \"cat\": \"alter\", \"ph\": \"X\", "
          "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %u, "
          "\"args\": {\"chunk\": %lld, \"arg0\": %llu, \"arg1\": %llu}}",
          Sep(), traceEventKindName(E.Kind), TsUs,
          static_cast<double>(E.DurNs) / 1000.0, E.Worker,
          static_cast<long long>(E.Chunk),
          static_cast<unsigned long long>(E.Arg0),
          static_cast<unsigned long long>(E.Arg1));
    else
      std::fprintf(
          F,
          "%s  {\"name\": \"%s\", \"cat\": \"alter\", \"ph\": \"i\", "
          "\"s\": \"t\", \"ts\": %.3f, \"pid\": 0, \"tid\": %u, "
          "\"args\": {\"chunk\": %lld, \"arg0\": %llu, \"arg1\": %llu}}",
          Sep(), traceEventKindName(E.Kind), TsUs, E.Worker,
          static_cast<long long>(E.Chunk),
          static_cast<unsigned long long>(E.Arg0),
          static_cast<unsigned long long>(E.Arg1));
  }

  // Counter tracks derived from the parent's events: Perfetto renders
  // "ph":"C" events as counter charts, one track per name, and tid 0 keeps
  // them grouped with the parent's track. Every track starts at 0; the
  // running totals step at each event they count, so a track's last value
  // is the run's total.
  const auto Counter = [&](const char *Name, uint64_t TimeNs,
                           uint64_t Value) {
    std::fprintf(F,
                 "%s  {\"name\": \"%s\", \"cat\": \"alter\", \"ph\": \"C\", "
                 "\"ts\": %.3f, \"pid\": 0, \"tid\": 0, "
                 "\"args\": {\"value\": %llu}}",
                 Sep(), Name, static_cast<double>(TimeNs - Base) / 1000.0,
                 static_cast<unsigned long long>(Value));
  };
  for (const char *Name : {"inflight_chunks", "committed", "retries",
                           "warm_forks", "cold_forks"})
    Counter(Name, Base, 0);
  uint64_t Committed = 0, Retries = 0, WarmForks = 0, ColdForks = 0;
  for (const TraceEvent &E : TraceEvents) {
    switch (E.Kind) {
    case TraceEventKind::PollWake:
      Counter("inflight_chunks", E.StartNs, E.Arg1);
      break;
    case TraceEventKind::Commit:
      Counter("committed", E.StartNs, ++Committed);
      break;
    case TraceEventKind::Retry:
      Counter("retries", E.StartNs, ++Retries);
      break;
    case TraceEventKind::Fork:
      // A resident reuse (Arg1 2) counts as warm, as in RunStats.
      if (E.Arg1 == 1 || E.Arg1 == 2)
        Counter("warm_forks", E.StartNs, ++WarmForks);
      else
        Counter("cold_forks", E.StartNs, ++ColdForks);
      break;
    default:
      break;
    }
  }

  std::fprintf(F, "\n]}\n");
  if (std::fclose(F) != 0) {
    if (Error)
      *Error = "write to trace output path " + Path + " failed";
    return false;
  }
  return true;
}

std::string RunResult::traceSummary(size_t TopN) const {
  std::string Out;
  Out += strprintf("trace: %zu events (%llu dropped)\n", TraceEvents.size(),
                   static_cast<unsigned long long>(TraceEventsDropped));
  uint64_t Counts[NumTraceEventKinds] = {};
  for (const TraceEvent &E : TraceEvents)
    ++Counts[static_cast<size_t>(E.Kind)];
  for (size_t K = 0; K != sizeof(Counts) / sizeof(Counts[0]); ++K)
    if (Counts[K] != 0)
      Out += strprintf("  %-15s %llu\n",
                       traceEventKindName(static_cast<TraceEventKind>(K)),
                       static_cast<unsigned long long>(Counts[K]));

  // Conflict attribution: every failed validation is one abort, charged
  // to the 512-byte granule of its witness word (Arg1). A zero witness —
  // a policy conflict with no single word, e.g. an InOrder breakage
  // cascade — is unattributed.
  struct Granule {
    uintptr_t WitnessWordKey = 0; ///< first witness seen in the granule
    uint64_t Aborts = 0;
  };
  std::map<uintptr_t, Granule> Granules;
  uint64_t Unattributed = 0;
  for (const TraceEvent &E : TraceEvents) {
    if (E.Kind != TraceEventKind::Validate || E.Arg0 == 0)
      continue;
    if (E.Arg1 == 0) {
      ++Unattributed;
      continue;
    }
    Granule &G = Granules[E.Arg1 >> GranuleShift];
    if (G.Aborts++ == 0)
      G.WitnessWordKey = E.Arg1;
  }
  if (Granules.empty() && Unattributed == 0) {
    Out += "conflict attribution: no aborts recorded\n";
    return Out;
  }
  std::vector<Granule> Ranked;
  for (const auto &[Key, G] : Granules)
    Ranked.push_back(G);
  // Stable on the map's ascending key order, so ties list by address.
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [](const Granule &A, const Granule &B) {
                     return A.Aborts > B.Aborts;
                   });
  if (Ranked.size() > TopN)
    Ranked.resize(TopN);
  Out += strprintf("conflict attribution (top %zu granules by aborts "
                   "caused):\n",
                   Ranked.size());
  for (const Granule &G : Ranked) {
    // The granule's base byte address: word key -> granule -> bytes.
    const unsigned long long GranuleBase =
        static_cast<unsigned long long>(G.WitnessWordKey >> GranuleShift)
        << (GranuleShift + 3);
    Out += strprintf("  granule 0x%llx  %llu aborts  witness %s\n",
                     GranuleBase, static_cast<unsigned long long>(G.Aborts),
                     traceLabelForWordKey(G.WitnessWordKey).c_str());
  }
  if (Unattributed != 0)
    Out += strprintf("  (no witness word)  %llu aborts\n",
                     static_cast<unsigned long long>(Unattributed));
  return Out;
}
