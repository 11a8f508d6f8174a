//===- support/Trace.cpp --------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Error.h"
#include "support/Timer.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>

using namespace alter;

//===----------------------------------------------------------------------===
// Trace level
//===----------------------------------------------------------------------===

const char *alter::traceLevelName(TraceLevel Level) {
  switch (Level) {
  case TraceLevel::Off:
    return "off";
  case TraceLevel::Events:
    return "events";
  }
  ALTER_UNREACHABLE("covered switch");
}

bool alter::parseTraceLevel(const std::string &Text, TraceLevel &Level) {
  std::string Lower;
  for (char C : Text)
    Lower += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (Lower == "off" || Lower == "0" || Lower.empty()) {
    Level = TraceLevel::Off;
    return true;
  }
  if (Lower == "events") {
    Level = TraceLevel::Events;
    return true;
  }
  return false;
}

namespace {

TraceLevel traceLevelFromEnv() {
  const char *Env = std::getenv("ALTER_TRACE");
  if (!Env || !*Env)
    return TraceLevel::Off;
  TraceLevel Level = TraceLevel::Off;
  // Startup config validation: guessing at a misspelled level would
  // silently drop the telemetry the operator asked for.
  if (!parseTraceLevel(Env, Level))
    fatalError(std::string("malformed ALTER_TRACE value: ") + Env);
  return Level;
}

TraceLevel &globalTraceLevelStorage() {
  static TraceLevel Level = traceLevelFromEnv();
  return Level;
}

} // namespace

TraceLevel alter::globalTraceLevel() { return globalTraceLevelStorage(); }

void alter::setGlobalTraceLevel(TraceLevel Level) {
  globalTraceLevelStorage() = Level;
}

//===----------------------------------------------------------------------===
// Event kinds
//===----------------------------------------------------------------------===

const char *alter::traceEventKindName(TraceEventKind Kind) {
  switch (Kind) {
  case TraceEventKind::ChunkStart:
    return "chunk_start";
  case TraceEventKind::ChunkExec:
    return "chunk_exec";
  case TraceEventKind::Serialize:
    return "serialize";
  case TraceEventKind::CommitAttempt:
    return "commit_attempt";
  case TraceEventKind::Fork:
    return "fork";
  case TraceEventKind::PollWake:
    return "poll_wake";
  case TraceEventKind::Validate:
    return "validate";
  case TraceEventKind::Commit:
    return "commit";
  case TraceEventKind::Retry:
    return "retry";
  case TraceEventKind::FaultContained:
    return "fault_contained";
  case TraceEventKind::RoundBarrier:
    return "round_barrier";
  case TraceEventKind::Recovery:
    return "recovery";
  case TraceEventKind::Salvage:
    return "salvage";
  case TraceEventKind::Bisect:
    return "bisect";
  case TraceEventKind::Quarantine:
    return "quarantine";
  case TraceEventKind::StageDispatch:
    return "stage_dispatch";
  case TraceEventKind::StageRetire:
    return "stage_retire";
  case TraceEventKind::StageStall:
    return "stage_stall";
  case TraceEventKind::ResourceFault:
    return "resource_fault";
  case TraceEventKind::Downgrade:
    return "downgrade";
  case TraceEventKind::Interrupt:
    return "interrupt";
  }
  ALTER_UNREACHABLE("covered switch");
}

//===----------------------------------------------------------------------===
// Trace clock
//===----------------------------------------------------------------------===

namespace {

/// Deterministic clock state. Plain (non-atomic) on purpose: only the
/// executor's own thread reads it (the threaded lock-step engine's workers
/// time chunks with nowNs() and the caller stamps them via traceStampNs),
/// and forked children inherit a COW copy — exactly the semantics the
/// determinism guarantee describes.
struct DetClock {
  bool Armed = false;
  uint64_t Value = 0;
};

DetClock &detClock() {
  static DetClock Clock;
  return Clock;
}

constexpr uint64_t DetClockTickNs = 1000;

} // namespace

uint64_t alter::traceNowNs() {
  DetClock &Clock = detClock();
  if (!Clock.Armed)
    return nowNs();
  Clock.Value += DetClockTickNs;
  return Clock.Value;
}

uint64_t alter::traceStampNs(uint64_t RealNs) {
  return detClock().Armed ? traceNowNs() : RealNs;
}

void alter::setDeterministicTraceClock(uint64_t Seed) {
  detClock() = {true, Seed};
}

void alter::clearDeterministicTraceClock() { detClock() = {}; }

//===----------------------------------------------------------------------===
// Region labels
//===----------------------------------------------------------------------===

namespace {

struct Region {
  uintptr_t End = 0; ///< exclusive end address
  std::string Label;
};

/// Regions keyed by base address. Lookup finds the greatest base <= addr
/// and checks its end; later registrations overwrite overlapping bases.
std::map<uintptr_t, Region> &regionMap() {
  static std::map<uintptr_t, Region> Regions;
  return Regions;
}

} // namespace

void alter::traceLabelRegion(const void *Base, size_t Bytes,
                             const std::string &Label) {
  if (!Base || Bytes == 0)
    return;
  const uintptr_t Start = reinterpret_cast<uintptr_t>(Base);
  regionMap()[Start] = {Start + Bytes, Label};
}

void alter::traceClearRegionLabels() { regionMap().clear(); }

std::string alter::traceLabelForWordKey(uintptr_t WordKey) {
  const uintptr_t Addr = WordKey << 3;
  char Buf[64];
  const auto &Regions = regionMap();
  auto It = Regions.upper_bound(Addr);
  if (It != Regions.begin()) {
    --It;
    if (Addr >= It->first && Addr < It->second.End) {
      const uintptr_t Off = Addr - It->first;
      if (Off == 0)
        return It->second.Label;
      std::snprintf(Buf, sizeof(Buf), "+0x%llx",
                    static_cast<unsigned long long>(Off));
      return It->second.Label + Buf;
    }
  }
  std::snprintf(Buf, sizeof(Buf), "0x%llx",
                static_cast<unsigned long long>(Addr));
  return Buf;
}

//===----------------------------------------------------------------------===
// Structured logging
//===----------------------------------------------------------------------===

const char *alter::logLevelName(LogLevel Level) {
  switch (Level) {
  case LogLevel::Off:
    return "off";
  case LogLevel::Error:
    return "error";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Info:
    return "info";
  case LogLevel::Debug:
    return "debug";
  }
  ALTER_UNREACHABLE("covered switch");
}

namespace {

LogLevel logLevelFromEnv() {
  const char *Env = std::getenv("ALTER_LOG");
  if (!Env || !*Env)
    return LogLevel::Off;
  std::string Lower;
  for (const char *P = Env; *P; ++P)
    Lower += static_cast<char>(std::tolower(static_cast<unsigned char>(*P)));
  if (Lower == "off" || Lower == "0")
    return LogLevel::Off;
  if (Lower == "error")
    return LogLevel::Error;
  if (Lower == "warn")
    return LogLevel::Warn;
  if (Lower == "info")
    return LogLevel::Info;
  if (Lower == "debug")
    return LogLevel::Debug;
  // Startup config validation, like ALTER_TRACE above.
  fatalError(std::string("malformed ALTER_LOG value: ") + Env);
}

} // namespace

LogLevel alter::globalLogLevel() {
  static const LogLevel Level = logLevelFromEnv();
  return Level;
}

bool alter::logEnabled(LogLevel Level) {
  return Level != LogLevel::Off && Level <= globalLogLevel();
}

namespace {

void logLineV(LogLevel Level, const char *Subsystem, const char *Fmt,
              va_list Args) {
  // run_done, the longest line, prints about 1 KiB of statistics.
  char Message[2048];
  std::vsnprintf(Message, sizeof(Message), Fmt, Args);
  // One write per line keeps lines whole even with forked children logging
  // concurrently to the shared stderr.
  char Line[2176];
  const int N =
      std::snprintf(Line, sizeof(Line), "alter level=%s sub=%s %s\n",
                    logLevelName(Level), Subsystem, Message);
  if (N > 0)
    std::fwrite(Line, 1, std::min(static_cast<size_t>(N), sizeof(Line) - 1),
                stderr);
}

} // namespace

void alter::alterLog(LogLevel Level, const char *Subsystem, const char *Fmt,
                     ...) {
  if (!logEnabled(Level))
    return;
  va_list Args;
  va_start(Args, Fmt);
  logLineV(Level, Subsystem, Fmt, Args);
  va_end(Args);
}

void alter::alterLogAlways(LogLevel Level, const char *Subsystem,
                           const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  logLineV(Level, Subsystem, Fmt, Args);
  va_end(Args);
}
