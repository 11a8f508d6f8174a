//===- support/Timer.h - Wall-clock timing utilities -----------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monotonic wall-clock helpers. Used both to measure real execution time
/// (sequential baselines, loop weights for Table 2) and to calibrate the
/// lock-step cost model that stands in for the paper's 8-core testbed.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_SUPPORT_TIMER_H
#define ALTER_SUPPORT_TIMER_H

#include <cstdint>

namespace alter {

/// Returns the current monotonic time in nanoseconds.
uint64_t nowNs();

/// Returns this process's consumed CPU time in nanoseconds (falling back
/// to nowNs() where the clock is unavailable). Measurements that feed the
/// modeled parallel clock use this instead of wall time: when replica
/// processes oversubscribe the host's cores, wall-clock intervals inflate
/// with scheduling interference, while CPU time still reports what the
/// measured section would cost running alone.
uint64_t cpuNowNs();

/// Returns the calling thread's consumed CPU time in nanoseconds (falling
/// back to nowNs() where the clock is unavailable). The threaded lock-step
/// engine feeds its modeled clock with this per chunk, so the model still
/// reports a chunk's stand-alone cost when more workers than cores share
/// the host.
uint64_t threadCpuNowNs();

/// Accumulating stopwatch. start()/stop() may be called repeatedly; the
/// elapsed time across all completed intervals accumulates.
class Timer {
public:
  /// Begins a new interval. Must not already be running.
  void start();

  /// Ends the current interval and returns its duration in nanoseconds.
  uint64_t stop();

  /// Total nanoseconds across all completed intervals.
  uint64_t elapsedNs() const { return TotalNs; }

  /// True while an interval is open.
  bool isRunning() const { return Running; }

  /// Discards all accumulated time.
  void reset() {
    TotalNs = 0;
    Running = false;
  }

private:
  uint64_t StartNs = 0;
  uint64_t TotalNs = 0;
  bool Running = false;
};

/// RAII interval: adds the scope's duration to the referenced counter.
class ScopedTimerNs {
public:
  explicit ScopedTimerNs(uint64_t &Sink) : Sink(Sink), StartNs(nowNs()) {}
  ~ScopedTimerNs() { Sink += nowNs() - StartNs; }

  ScopedTimerNs(const ScopedTimerNs &) = delete;
  ScopedTimerNs &operator=(const ScopedTimerNs &) = delete;

private:
  uint64_t &Sink;
  uint64_t StartNs;
};

} // namespace alter

#endif // ALTER_SUPPORT_TIMER_H
