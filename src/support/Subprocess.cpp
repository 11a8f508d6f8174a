//===- support/Subprocess.cpp ---------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include "support/Error.h"
#include "support/Io.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <unistd.h>
#include <sys/resource.h>
#include <sys/wait.h>

using namespace alter;

void alter::writeAllOrDie(int Fd, const void *Data, size_t Size) {
  if (!writeFull(Fd, Data, Size))
    _exit(112);
}

pid_t alter::waitpidRetry(pid_t Pid, int *Status) {
  for (;;) {
    const pid_t R = ::waitpid(Pid, Status, 0);
    if (R >= 0 || errno != EINTR)
      return R;
  }
}

pid_t alter::waitpidRusage(pid_t Pid, int *Status, ChildRusage *Usage,
                           int Options) {
  struct rusage Ru;
  for (;;) {
    const pid_t R = ::wait4(Pid, Status, Options, &Ru);
    if (R < 0 && errno == EINTR)
      continue;
    if (R > 0 && Usage) {
      Usage->UserNs = static_cast<uint64_t>(Ru.ru_utime.tv_sec) *
                          1'000'000'000ULL +
                      static_cast<uint64_t>(Ru.ru_utime.tv_usec) * 1000ULL;
      Usage->SysNs = static_cast<uint64_t>(Ru.ru_stime.tv_sec) *
                         1'000'000'000ULL +
                     static_cast<uint64_t>(Ru.ru_stime.tv_usec) * 1000ULL;
      // ru_maxrss is kilobytes on Linux.
      Usage->MaxRssBytes = static_cast<uint64_t>(Ru.ru_maxrss) * 1024ULL;
    }
    return R;
  }
}

void ParkedChild::park(pid_t Child) {
  reap(/*Block=*/true);
  Pid = Child;
}

void ParkedChild::reap(bool Block) {
  if (Pid < 0)
    return;
  int Status = 0;
  ChildRusage Reaped;
  const pid_t R = waitpidRusage(Pid, &Status, &Reaped, Block ? 0 : WNOHANG);
  if (R == 0)
    return; // not exited yet
  if (R > 0)
    Usage.add(Reaped);
  Pid = -1;
}

ChildRusage ParkedChild::takeUsage() {
  const ChildRusage Taken = Usage;
  Usage = ChildRusage();
  return Taken;
}

pid_t alter::forkFlushed() {
  std::fflush(nullptr);
  return ::fork();
}

SubprocessResult
alter::runInSandbox(const std::function<void(int WriteFd)> &Child,
                    unsigned TimeoutSec) {
  int Fds[2];
  if (::pipe(Fds) != 0) {
    // EMFILE/ENFILE: contained — report a spawn failure the caller can
    // classify as an environment fault instead of killing the process.
    SubprocessResult Result;
    Result.SpawnFailed = true;
    Result.SpawnError = "pipe";
    return Result;
  }
  const pid_t Pid = forkFlushed();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    SubprocessResult Result;
    Result.SpawnFailed = true;
    Result.SpawnError = "fork";
    return Result;
  }
  if (Pid == 0) {
    ::close(Fds[0]);
    if (TimeoutSec != 0)
      ::alarm(TimeoutSec); // SIGALRM's default action kills the child
    Child(Fds[1]);
    _exit(111); // the child callback must _exit itself; flag if it returns
  }
  ::close(Fds[1]);

  SubprocessResult Result;
  uint8_t Buf[1 << 16];
  for (;;) {
    const ssize_t N = ::read(Fds[0], Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      break;
    Result.Output.insert(Result.Output.end(), Buf, Buf + N);
  }
  ::close(Fds[0]);

  int Status = 0;
  if (waitpidRetry(Pid, &Status) < 0)
    // True invariant violation, not resource exhaustion: waitpid on our own
    // un-reaped child can only fail if something corrupted the process's
    // child bookkeeping (e.g. a stray SIGCHLD/SA_NOCLDWAIT handler).
    fatalError("waitpid() failed in sandbox");
  if (WIFEXITED(Status)) {
    Result.Exited = true;
    Result.ExitCode = WEXITSTATUS(Status);
  } else if (WIFSIGNALED(Status)) {
    Result.Signal = WTERMSIG(Status);
    Result.TimedOut = Result.Signal == SIGALRM;
  }
  return Result;
}
