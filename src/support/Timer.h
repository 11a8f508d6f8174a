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

} // namespace alter

#endif // ALTER_SUPPORT_TIMER_H
