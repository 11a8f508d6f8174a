//===- support/Timer.cpp --------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Timer.h"

#include <cassert>
#include <chrono>
#include <ctime>

using namespace alter;

uint64_t alter::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t alter::cpuNowNs() {
#ifdef CLOCK_PROCESS_CPUTIME_ID
  timespec Ts;
  if (::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts) == 0)
    return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(Ts.tv_nsec);
#endif
  return nowNs();
}

uint64_t alter::threadCpuNowNs() {
#ifdef CLOCK_THREAD_CPUTIME_ID
  timespec Ts;
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts) == 0)
    return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(Ts.tv_nsec);
#endif
  return nowNs();
}

void Timer::start() {
  assert(!Running && "Timer::start called while already running");
  Running = true;
  StartNs = nowNs();
}

uint64_t Timer::stop() {
  assert(Running && "Timer::stop called while not running");
  const uint64_t Interval = nowNs() - StartNs;
  TotalNs += Interval;
  Running = false;
  return Interval;
}
