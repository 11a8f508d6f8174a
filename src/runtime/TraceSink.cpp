//===- runtime/TraceSink.cpp ----------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/TraceSink.h"

#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <set>

using namespace alter;

void TraceSink::conflict(int64_t Chunk, uintptr_t WitnessWordKey) {
  if (!counters())
    return;
  alterLog(LogLevel::Debug, "conflict", "chunk=%lld witness=0x%llx",
           static_cast<long long>(Chunk),
           static_cast<unsigned long long>(WitnessWordKey << 3));
  if (WitnessWordKey == 0) {
    ++UnattributedAborts;
    return;
  }
  GranuleCount &G = Granules[WitnessWordKey >> GranuleShift];
  if (G.WitnessWordKey == 0)
    G.WitnessWordKey = WitnessWordKey;
  ++G.Aborts;
}

namespace {

/// Merges \p Src into \p Dst, both sorted ascending by GranuleKey.
void mergeGranuleStats(std::vector<GranuleAbortStat> &Dst,
                       const std::vector<GranuleAbortStat> &Src) {
  for (const GranuleAbortStat &S : Src) {
    auto It = std::lower_bound(Dst.begin(), Dst.end(), S,
                               [](const GranuleAbortStat &A,
                                  const GranuleAbortStat &B) {
                                 return A.GranuleKey < B.GranuleKey;
                               });
    if (It != Dst.end() && It->GranuleKey == S.GranuleKey) {
      It->Aborts += S.Aborts;
      if (It->WitnessWordKey == 0)
        It->WitnessWordKey = S.WitnessWordKey;
    } else {
      Dst.insert(It, S);
    }
  }
}

} // namespace

void TraceSink::finish(RunResult &Result) {
  Result.TraceEventsDropped += Buf.dropped();
  if (Buf.events()) {
    std::vector<TraceEvent> Events = Buf.take();
    if (Result.TraceEvents.empty())
      Result.TraceEvents = std::move(Events);
    else
      Result.TraceEvents.insert(Result.TraceEvents.end(), Events.begin(),
                                Events.end());
  }
  std::vector<GranuleAbortStat> Collected;
  Collected.reserve(Granules.size());
  for (const auto &[Granule, G] : Granules)
    Collected.push_back({Granule, G.WitnessWordKey, G.Aborts});
  mergeGranuleStats(Result.GranuleAborts, Collected);
  Result.UnattributedAborts += UnattributedAborts;
  Granules.clear();
  UnattributedAborts = 0;
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
  mergeGranuleStats(GranuleAborts, Other.GranuleAborts);
  UnattributedAborts += Other.UnattributedAborts;
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
  // regardless of the clock's epoch. Timeline samples share the same clock,
  // so they participate in the base computation when present.
  uint64_t Base = ~uint64_t(0);
  for (const TraceEvent &E : TraceEvents)
    Base = std::min(Base, E.StartNs);
  for (const TimelineSample &S : Timeline)
    Base = std::min(Base, S.TimeNs);
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

  // Counter tracks from the runtime timeline: Perfetto renders "ph":"C"
  // events as stacked counter charts, one track per "name". tid 0 keeps the
  // counters grouped with the parent's track.
  struct CounterTrack {
    const char *Name;
    uint64_t TimelineSample::*Field;
  };
  static const CounterTrack Tracks[] = {
      {"inflight_chunks", &TimelineSample::InflightChunks},
      {"ring_depth_bytes", &TimelineSample::RingDepthBytes},
      {"committed", &TimelineSample::Committed},
      {"retries", &TimelineSample::Retries},
      {"warm_forks", &TimelineSample::WarmForks},
      {"cold_forks", &TimelineSample::ColdForks},
  };
  for (const CounterTrack &T : Tracks) {
    for (const TimelineSample &S : Timeline) {
      const double TsUs = static_cast<double>(S.TimeNs - Base) / 1000.0;
      std::fprintf(F,
                   "%s  {\"name\": \"%s\", \"cat\": \"alter\", \"ph\": \"C\", "
                   "\"ts\": %.3f, \"pid\": 0, \"tid\": 0, "
                   "\"args\": {\"value\": %llu}}",
                   Sep(), T.Name, TsUs,
                   static_cast<unsigned long long>(S.*(T.Field)));
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

  if (GranuleAborts.empty() && UnattributedAborts == 0) {
    Out += "conflict attribution: no aborts recorded\n";
    return Out;
  }
  std::vector<GranuleAbortStat> Ranked = GranuleAborts;
  std::sort(Ranked.begin(), Ranked.end(),
            [](const GranuleAbortStat &A, const GranuleAbortStat &B) {
              if (A.Aborts != B.Aborts)
                return A.Aborts > B.Aborts;
              return A.GranuleKey < B.GranuleKey;
            });
  if (Ranked.size() > TopN)
    Ranked.resize(TopN);
  Out += strprintf("conflict attribution (top %zu granules by aborts "
                   "caused):\n",
                   Ranked.size());
  for (const GranuleAbortStat &G : Ranked) {
    // The granule's base byte address: granule key -> word key -> bytes.
    const unsigned long long GranuleBase =
        static_cast<unsigned long long>(G.GranuleKey)
        << (GranuleShift + 3);
    Out += strprintf("  granule 0x%llx  %llu aborts  witness %s\n",
                     GranuleBase, static_cast<unsigned long long>(G.Aborts),
                     traceLabelForWordKey(G.WitnessWordKey).c_str());
  }
  if (UnattributedAborts != 0)
    Out += strprintf("  (no witness word)  %llu aborts\n",
                     static_cast<unsigned long long>(UnattributedAborts));
  return Out;
}
