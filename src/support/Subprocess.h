//===- support/Subprocess.h - Sandboxed child execution ---------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forked-child sandboxing for the inference engine: candidate annotations
/// can crash, corrupt state, or spin, so each evaluation runs in its own
/// process with a wall-clock limit. The child writes an arbitrary byte
/// payload to a pipe; the parent collects it together with how the child
/// died.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_SUPPORT_SUBPROCESS_H
#define ALTER_SUPPORT_SUBPROCESS_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace alter {

/// How a sandboxed child terminated, plus whatever it wrote to its pipe.
struct SubprocessResult {
  /// True when the sandbox never launched: pipe() or fork() failed in the
  /// parent (resource exhaustion). No child ran, Output is empty, and
  /// SpawnError names the failed syscall — callers classify this as an
  /// environment fault, not a verdict on the child workload.
  bool SpawnFailed = false;
  /// The failed syscall when SpawnFailed ("pipe" or "fork").
  std::string SpawnError;
  /// True when the child exited normally (any exit code).
  bool Exited = false;
  /// Exit code when Exited.
  int ExitCode = -1;
  /// Terminating signal when !Exited (0 if unknown).
  int Signal = 0;
  /// True when the wall-clock limit killed the child.
  bool TimedOut = false;
  /// Bytes the child wrote before terminating.
  std::vector<uint8_t> Output;
};

/// Forks, runs \p Child(WriteFd) in the child process (the child must
/// _exit and never return), and collects the result. \p TimeoutSec bounds
/// the child's wall-clock time (0 = unlimited); a timed-out child is
/// killed and reported with TimedOut set.
SubprocessResult runInSandbox(const std::function<void(int WriteFd)> &Child,
                              unsigned TimeoutSec);

/// fork() after flushing every stdio output stream. A child inherits the
/// parent's unflushed buffers, and one that flushes them on its way out (as
/// forked children do under ThreadSanitizer) prints that text a second
/// time. Every fork of the parent process goes through here.
pid_t forkFlushed();

/// write() helper that retries on EINTR and loops until all bytes are
/// written; exits the process on hard errors (child-side use only).
void writeAllOrDie(int Fd, const void *Data, size_t Size);

/// waitpid() that retries on EINTR. Returns the reaped pid, or -1 on a hard
/// error (the caller decides whether that is recoverable; a signal landing
/// mid-reap must never be).
pid_t waitpidRetry(pid_t Pid, int *Status);

/// CPU and memory accounting of a reaped child, from wait4(2). For a
/// process that itself waited on children (the warm-pool template), the
/// kernel folds the waited-for descendants in transitively, so reaping the
/// template yields the cumulative usage of every warm chunk child.
struct ChildRusage {
  uint64_t UserNs = 0;     ///< user CPU time
  uint64_t SysNs = 0;      ///< system CPU time
  uint64_t MaxRssBytes = 0; ///< peak resident set

  /// Folds in another reap: times add up, the peak is the larger one.
  void add(const ChildRusage &Other) {
    UserNs += Other.UserNs;
    SysNs += Other.SysNs;
    MaxRssBytes = std::max(MaxRssBytes, Other.MaxRssBytes);
  }
};

/// waitpidRetry() via wait4(2): additionally fills \p Usage with the
/// child's resource accounting when non-null (left untouched unless the
/// child was reaped). \p Options is passed through, so WNOHANG returns 0
/// for a child that has not exited yet.
pid_t waitpidRusage(pid_t Pid, int *Status, ChildRusage *Usage,
                    int Options = 0);

/// A child that is reaped later instead of waited for now: a fork
/// engine's retired warm template, which kills and reaps its own children
/// while the parent moves on. Holds at most one pid; parking another
/// first waits for the previous one.
class ParkedChild {
public:
  ParkedChild() = default;
  ParkedChild(const ParkedChild &) = delete;
  ParkedChild &operator=(const ParkedChild &) = delete;
  /// Waits for the parked child; its usage is dropped.
  ~ParkedChild() { reap(/*Block=*/true); }

  /// Parks \p Pid (nothing for -1) after reaping the previous child.
  void park(pid_t Pid);

  /// Reaps the parked child, if any: waits for it when \p Block, else
  /// only if it has already exited.
  void reap(bool Block);

  /// wait4 usage of the children reaped since the last call.
  ChildRusage takeUsage();

private:
  pid_t Pid = -1;
  ChildRusage Usage;
};

} // namespace alter

#endif // ALTER_SUPPORT_SUBPROCESS_H
