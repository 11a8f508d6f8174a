//===- runtime/WorkerPool.cpp ---------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/WorkerPool.h"

#include "support/Error.h"
#include "support/Io.h"
#include "support/Subprocess.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

using namespace alter;

namespace {

//===----------------------------------------------------------------------===
// Control-pipe command protocol (parent -> template)
//===----------------------------------------------------------------------===

/// Command header: 1-byte opcode + u64 payload length. Payloads are raw
/// little-endian structs; the template is a fork of the parent, so
/// pointers (reduction Custom ops) and layouts are identical by
/// construction and need no portable encoding.
enum : uint8_t {
  OpApply = 1, ///< replay one commit into template memory
  OpFork = 2,  ///< fork a chunk child for a slot
  OpKill = 3,  ///< SIGKILL + reap a slot's child (acked by a doorbell)
};

constexpr size_t CmdHeaderBytes = 1 + sizeof(uint64_t);

/// Consecutive redispatches of one resident child before its slot re-forks
/// from the template, in runs that have not engaged catch-up: bounds how
/// far the child's snapshot lags, and with it the conflict-epoch history
/// the detector must retain.
constexpr unsigned MaxReuseChain = 64;

struct ForkCmd {
  uint64_t Slot;
  uint64_t Attempt;
  int64_t Chunk;
  int64_t First;
  int64_t Last;
  ArmedFault Fault;
};

struct KillCmd {
  uint64_t Slot;
};

void appendRaw(std::vector<uint8_t> &Out, const void *Data, size_t Size) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  Out.insert(Out.end(), P, P + Size);
}

void appendCmdHeader(std::vector<uint8_t> &Out, uint8_t Op,
                     uint64_t PayloadLen) {
  Out.push_back(Op);
  appendRaw(Out, &PayloadLen, sizeof(PayloadLen));
}

/// The executors and the pool live in processes that write to pipes whose
/// read end can vanish mid-run (a killed template, a dead parent); the
/// failure must surface as EPIPE, not a process-killing SIGPIPE.
void ignoreSigpipeOnce() {
  static const bool Done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)Done;
}

bool writeAllRetry(int Fd, const void *Data, size_t Size) {
  return writeFull(Fd, Data, Size);
}

void writeDoorbell(int Fd, uint8_t Byte) {
  (void)writeFull(Fd, &Byte, 1);
}

} // namespace

//===----------------------------------------------------------------------===
// Process-default transport selection
//===----------------------------------------------------------------------===

const char *alter::transportKindName(TransportKind Kind) {
  switch (Kind) {
  case TransportKind::Pipe:
    return "pipe";
  case TransportKind::Ring:
    return "ring";
  }
  ALTER_UNREACHABLE("covered switch");
}

TransportKind alter::globalTransportKind() {
  static const TransportKind Kind = [] {
    const char *Env = std::getenv("ALTER_TRANSPORT");
    if (!Env || !*Env)
      return TransportKind::Ring;
    const std::string Value(Env);
    if (Value == "pipe")
      return TransportKind::Pipe;
    if (Value == "ring")
      return TransportKind::Ring;
    // Startup config validation, not a resource-exhaustion path: a bad
    // ALTER_TRANSPORT spelling means the operator's intent is unknowable
    // and aborting at process start is the contained outcome.
    fatalError(std::string("malformed ALTER_TRANSPORT value: ") + Env);
  }();
  return Kind;
}

//===----------------------------------------------------------------------===
// WorkerPool: parent side
//===----------------------------------------------------------------------===

WorkerPool::WorkerPool(const LoopSpec &Spec, const ExecutorConfig &Config,
                       unsigned NumSlots, bool AllowReuse)
    : Spec(Spec), Config(Config),
      AllowReuse(AllowReuse), Slots(NumSlots) {
  ignoreSigpipeOnce();
  for (unsigned SlotIdx = 0; SlotIdx != Slots.size(); ++SlotIdx) {
    SlotState &S = Slots[SlotIdx];
    // Resource exhaustion here (ENOMEM on the ring mapping, EMFILE/ENFILE
    // on either pipe) is a contained per-run outcome, not a crash: the
    // pool comes up with valid() == false and the engine that built it
    // drops to the cold pipe transport. Injected setup faults (mmapfail@N
    // / pipeexhaust@N, N = slot index) strike the same paths.
    const bool InjectMmap =
        FaultPlan::global().takeSetup(FaultKind::MmapFail, SlotIdx).Armed;
    S.Ring = std::make_unique<CommitRing>();
    if (InjectMmap || !S.Ring->valid()) {
      alterLogAlways(LogLevel::Warn, "pool",
                     "event=ring_invalid slot=%u injected=%d", SlotIdx,
                     InjectMmap ? 1 : 0);
      if (!Invalid)
        FailSite = 0;
      Invalid = true;
      continue;
    }
    const bool InjectPipe =
        FaultPlan::global().takeSetup(FaultKind::PipeExhaust, SlotIdx).Armed;
    int Fds[2];
    if (InjectPipe || ::pipe(Fds) != 0) {
      alterLogAlways(LogLevel::Warn, "pool",
                     "event=doorbell_pipe_fail slot=%u errno=%d injected=%d",
                     SlotIdx, InjectPipe ? 0 : errno, InjectPipe ? 1 : 0);
      if (!Invalid)
        FailSite = 1;
      Invalid = true;
      continue;
    }
    S.DoorbellR = Fds[0];
    S.DoorbellW = Fds[1];
    // The parent drains doorbells opportunistically from its poll loop.
    const int Flags = ::fcntl(S.DoorbellR, F_GETFL);
    ::fcntl(S.DoorbellR, F_SETFL, Flags | O_NONBLOCK);
    // Work pipe: the parent keeps BOTH ends — the write end to dispatch,
    // the read end so a respawned template (forked from the parent later)
    // still inherits it for its children. The parent is its only writer,
    // and MaxCatchUpBytes keeps a command within half the pipe buffer, so
    // dispatch writes neither interleave nor block.
    if (::pipe(Fds) != 0) {
      alterLogAlways(LogLevel::Warn, "pool",
                     "event=work_pipe_fail slot=%u errno=%d", SlotIdx, errno);
      if (!Invalid)
        FailSite = 1;
      Invalid = true;
      continue;
    }
    S.WorkR = Fds[0];
    S.WorkW = Fds[1];
  }
}

WorkerPool::~WorkerPool() {
  retireTemplate();
  for (SlotState &S : Slots) {
    if (S.DoorbellR >= 0)
      ::close(S.DoorbellR);
    if (S.DoorbellW >= 0)
      ::close(S.DoorbellW);
    if (S.WorkR >= 0)
      ::close(S.WorkR);
    if (S.WorkW >= 0)
      ::close(S.WorkW);
  }
}

bool WorkerPool::sendAll(const void *Data, size_t Size) {
  if (ControlFd < 0)
    return false;
  if (writeAllRetry(ControlFd, Data, Size))
    return true;
  // The template is gone (EPIPE) or wedged: retire it hard so the caller
  // degrades to cold forks and the next warm fork respawns cleanly.
  ++Faults;
  killTemplateHard();
  return false;
}

void WorkerPool::killTemplateHard() {
  if (TemplatePid > 0) {
    ::kill(TemplatePid, SIGKILL);
    int Status = 0;
    ChildRusage Usage;
    if (waitpidRusage(TemplatePid, &Status, &Usage) > 0)
      TemplateUsage.add(Usage);
  }
  if (ControlFd >= 0)
    ::close(ControlFd);
  ControlFd = -1;
  TemplatePid = -1;
  // The template's in-flight children died with it (PDEATHSIG) and nothing
  // is left to reap them, so their terminal doorbells would never ring and
  // the executor would wait on those channels forever. Ring them on the
  // dead template's behalf: the executor completes the chunks as abnormal
  // and requeues them. (Without PDEATHSIG an orphan may still publish a
  // whole record; the abnormal completion discards it and the retry is
  // merely redundant, never a duplicate commit.)
  for (SlotState &S : Slots) {
    if (S.Used && !S.TerminalSeen)
      writeDoorbell(S.DoorbellW,
                    static_cast<uint8_t>(RingDoorbellAbnormal |
                                         (S.Attempt & RingDoorbellTagMask)));
    resetSlot(S);
    // Retire the slot's work pipe and ring along with the template. The
    // PDEATHSIG'd residents cannot be reaped (their parent of record just
    // died), so each may linger on the run queue with SIGKILL pending —
    // and a pipe read copies queued data out BEFORE the fatal signal is
    // checked, so a doomed resident that finally gets scheduled can
    // consume a redispatch command addressed to its successor and take it
    // to the grave (the successor then waits forever). A fresh pipe is
    // unreachable from the old lineage: only children of the NEXT
    // template (forked from the parent after this point) inherit it.
    // Ditto the ring: a resident killed mid-publish may still push a few
    // bytes after the parent's discard-drain, interleaving garbage into
    // the next attempt's stream. The doorbell pipe stays — stale bells
    // carry the old attempt tag and are filtered, and the executor's
    // polled fds must remain valid across the respawn.
    if (S.WorkR >= 0)
      ::close(S.WorkR);
    if (S.WorkW >= 0)
      ::close(S.WorkW);
    int Fds[2];
    if (::pipe(Fds) == 0) {
      S.WorkR = Fds[0];
      S.WorkW = Fds[1];
    } else {
      // Degrade: dispatch writes fail, so warm forks fall back to
      // one-shot children (WorkFd -1) and reuse simply stops.
      S.WorkR = -1;
      S.WorkW = -1;
    }
    S.Ring = std::make_unique<CommitRing>();
    if (!S.Ring->valid()) {
      // The replacement mapping failed (ENOMEM while already degraded):
      // the whole pool retreats to cold forks rather than aborting.
      alterLogAlways(LogLevel::Warn, "pool",
                     "event=ring_respawn_fail errno=%d", errno);
      Invalid = true;
    }
  }
}

size_t WorkerPool::ringDepthBytes() const {
  size_t Total = 0;
  for (const SlotState &S : Slots)
    if (S.Ring && S.Ring->valid())
      Total += S.Ring->used();
  return Total;
}

void WorkerPool::resetSlot(SlotState &S) {
  S.Used = false;
  S.TerminalSeen = true;
  S.RecordDone = true;
  S.FinishSeen = false;
  S.LastCommitOk = false;
  S.CurChunk = -1;
  S.ReuseChain = 0;
}

bool WorkerPool::ensureTemplate() {
  if (TemplatePid > 0)
    return true;
  int Fds[2];
  if (::pipe(Fds) != 0)
    return false;
  const pid_t Pid = forkFlushed();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Fds[1]);
    // Parent-only descriptors: the doorbell read ends and the work-pipe
    // write ends (children must see work-pipe EOF semantics driven by the
    // parent alone).
    for (SlotState &S : Slots) {
      if (S.DoorbellR >= 0)
        ::close(S.DoorbellR);
      if (S.WorkW >= 0)
        ::close(S.WorkW);
    }
    templateMain(Fds[0]);
    // templateMain never returns.
  }
  ::close(Fds[0]);
  ControlFd = Fds[1];
  TemplatePid = Pid;
  CommitsSinceSpawn = 0;
  History.clear();
  HistoryBytes = 0;
  HistoryBase = 0;
  // A fresh template snapshots the parent wholesale; whatever children the
  // previous incarnation lost are strangers to it.
  for (SlotState &S : Slots)
    resetSlot(S);
  return true;
}

pid_t WorkerPool::detachTemplate() {
  if (TemplatePid < 0)
    return -1;
  // Control-pipe EOF tells the template to kill and reap any straggling
  // children and exit; it is quiescent otherwise, so this is prompt.
  ::close(ControlFd);
  ControlFd = -1;
  const pid_t Pid = TemplatePid;
  TemplatePid = -1;
  // Resident (reuse-idle) children die in the teardown; forget them so no
  // redispatch targets a dead process.
  for (SlotState &S : Slots)
    resetSlot(S);
  return Pid;
}

void WorkerPool::retireTemplate() {
  const pid_t Pid = detachTemplate();
  if (Pid < 0)
    return;
  int Status = 0;
  ChildRusage Usage;
  if (waitpidRusage(Pid, &Status, &Usage) > 0)
    TemplateUsage.add(Usage);
}

bool WorkerPool::warmFork(unsigned Slot, int64_t Chunk, int64_t First,
                          int64_t Last, const ArmedFault &Fault,
                          ChunkChannel &Ch) {
  if (Invalid) {
    // A ring or pipe never came up (or died in a hard retirement): every
    // fork degrades to the cold path until the engine drops the pool.
    ++Faults;
    return false;
  }
  SlotState &S = Slots[Slot];

  if (!ensureTemplate()) {
    ++Faults;
    return false;
  }

  // Quiesce the slot, but only when the previous record did NOT arrive
  // whole: then the old child may still be publishing (e.g. a corrupt
  // length field made the parent complete the record early), so block
  // until the template confirms the reap. A whole record means the
  // producer pushed its final byte and is exiting — the steady-state hot
  // path skips the wait entirely (blocking here would serialize the
  // parent against the template's fork+reap work and forfeit the pool's
  // pipelining), and the template's OpFork handler still kills and reaps
  // any technically-live predecessor before the successor runs. A Kill
  // command is idempotent — if the child already exited, the reap sweep
  // has written (or the kill handler writes) the terminal doorbell this
  // wait consumes.
  if (S.Used && !S.TerminalSeen && !S.RecordDone) {
    KillCmd Kill{Slot};
    std::vector<uint8_t> Cmd;
    appendCmdHeader(Cmd, OpKill, sizeof(Kill));
    appendRaw(Cmd, &Kill, sizeof(Kill));
    if (!sendAll(Cmd.data(), Cmd.size()))
      return false;
    const uint64_t Deadline = nowNs() + 5'000'000'000ULL;
    while (!S.TerminalSeen) {
      pollfd Pfd{S.DoorbellR, POLLIN, 0};
      const int N = ::poll(&Pfd, 1, 50);
      if (N < 0 && errno == EINTR)
        continue;
      uint8_t Bells[64];
      for (;;) {
        const ssize_t R = ::read(S.DoorbellR, Bells, sizeof(Bells));
        if (R < 0 && errno == EINTR)
          continue;
        if (R <= 0)
          break;
        for (ssize_t I = 0; I != R; ++I)
          if ((Bells[I] & RingDoorbellTagMask) == S.Attempt &&
              (Bells[I] & RingDoorbellKindMask) != RingDoorbellData)
            S.TerminalSeen = true;
      }
      if (!S.TerminalSeen && nowNs() > Deadline) {
        // Template wedged: retire it hard and fall back cold.
        ++Faults;
        killTemplateHard();
        return false;
      }
    }
  }

  // Fork-free steady state: the slot's previous child rang Finish (so it
  // is resident, idle, and will never ring another byte for the old
  // chunk), its chunk committed (so its written-through memory is a
  // subset of committed state), and no terminal doorbell arrived (so it
  // was not reaped dead). Hand it the next chunk with one small write —
  // no fork by the parent, the template, or anyone else. FinishSeen is
  // the race gate: it proves the old chunk's last doorbell was already
  // consumed, which is what makes redispatch under the SAME attempt tag
  // safe (and keeping the tag keeps the template's pid/tag bookkeeping
  // valid for kills and crash reaps). Without catch-up the child keeps
  // its old snapshot, and the chain cap bounds that staleness — and with
  // it conflict-epoch retention — by periodically falling through to a
  // fresh template fork. With catch-up the command carries the commits
  // the child missed, so its snapshot is as fresh as a fork's; only a
  // child whose missed commits reach back past the history re-forks.
  if (AllowReuse && S.Used && !S.TerminalSeen && S.LastCommitOk &&
      (CatchUp ? S.Snapshot >= HistoryBase
               : S.ReuseChain < MaxReuseChain)) {
    // Consume any doorbells still queued: the Finish byte itself, when
    // the record was completed by frame inspection before the pipe was
    // drained, and any terminal that raced in (a crash terminal means
    // the resident child died after its commit: fall through and
    // re-fork). The wait is not optional politeness — the parent often
    // completes the record off the Data bell a beat BEFORE the child
    // writes Finish (push then bell are two syscalls), and giving up
    // here would forfeit nearly every redispatch to that sliver. With
    // the gate otherwise satisfied a decisive bell is guaranteed in
    // flight: the child rings Finish right after its final push, and if
    // it died first the template's reap sweep rings a terminal instead.
    // The deadline is a liveness backstop (wedged template, stalled
    // child) that degrades to the fork path, never a hang.
    const uint64_t BellDeadline = nowNs() + 1'000'000'000ULL;
    for (;;) {
      uint8_t Bells[64];
      for (;;) {
        const ssize_t R = ::read(S.DoorbellR, Bells, sizeof(Bells));
        if (R < 0 && errno == EINTR)
          continue;
        if (R <= 0)
          break;
        for (ssize_t I = 0; I != R; ++I) {
          if ((Bells[I] & RingDoorbellTagMask) != S.Attempt)
            continue;
          const uint8_t Kind = Bells[I] & RingDoorbellKindMask;
          if (Kind == RingDoorbellFinish)
            S.FinishSeen = true;
          else if (Kind >= RingDoorbellClean)
            S.TerminalSeen = true;
        }
      }
      if (S.FinishSeen || S.TerminalSeen)
        break;
      const uint64_t Now = nowNs();
      if (Now >= BellDeadline)
        break;
      pollfd Pfd{S.DoorbellR, POLLIN, 0};
      const int N = ::poll(&Pfd, 1,
                           static_cast<int>((BellDeadline - Now) / 1'000'000ULL) + 1);
      if (N < 0 && errno != EINTR)
        break;
      if (N == 0)
        break; // timeout: one more drain would see nothing new
    }
    if (S.FinishSeen && !S.TerminalSeen) {
      WireNextCmd Next{Chunk, First, Last, Fault, 0,
                       static_cast<uint8_t>(S.Attempt)};
      std::vector<uint8_t> Msg(sizeof(Next));
      if (CatchUp)
        for (auto It = History.begin() +
                       static_cast<ptrdiff_t>(S.Snapshot - HistoryBase);
             It != History.end(); ++It)
          Msg.insert(Msg.end(), It->begin() + CmdHeaderBytes, It->end());
      Next.CatchUpBytes = Msg.size() - sizeof(Next);
      std::memcpy(Msg.data(), &Next, sizeof(Next));
      if (writeAllRetry(S.WorkW, Msg.data(), Msg.size())) {
        ++Reuses;
        ++S.ReuseChain;
        S.RecordDone = false;
        S.FinishSeen = false;
        S.LastCommitOk = false;
        S.CurChunk = Chunk;
        if (CatchUp)
          S.Snapshot = CommitsSinceSpawn;
        Ch = ChunkChannel();
        Ch.Launched = true;
        Ch.Warm = true;
        Ch.Reused = true;
        Ch.PollFd = S.DoorbellR;
        return true;
      }
      // A failed dispatch write degrades to the fork path below.
    }
  }

  // The slot is quiet: discard stale doorbells and leftover ring bytes
  // from the previous attempt. (The template's OpFork handler kills and
  // reaps a resident predecessor before forking the successor.)
  {
    uint8_t Bells[64];
    for (;;) {
      const ssize_t R = ::read(S.DoorbellR, Bells, sizeof(Bells));
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0)
        break;
    }
    std::vector<uint8_t> Discard;
    S.Ring->drainInto(Discard);
  }

  S.Attempt = (S.Attempt + 1) & RingDoorbellTagMask;
  ForkCmd Fork{Slot, S.Attempt, Chunk, First, Last, Fault};
  std::vector<uint8_t> Cmd;
  appendCmdHeader(Cmd, OpFork, sizeof(Fork));
  appendRaw(Cmd, &Fork, sizeof(Fork));
  if (!sendAll(Cmd.data(), Cmd.size()))
    return false;

  S.Used = true;
  S.TerminalSeen = false;
  S.RecordDone = false;
  S.FinishSeen = false;
  S.LastCommitOk = false;
  S.CurChunk = Chunk;
  S.ReuseChain = 0;
  S.Snapshot = CommitsSinceSpawn; // FIFO: the fork follows every Apply sent
  Ch = ChunkChannel();
  Ch.Launched = true;
  Ch.Warm = true;
  Ch.PollFd = S.DoorbellR;
  return true;
}

void WorkerPool::pushCommit(unsigned Worker, int64_t Chunk,
                            const ChildReport &Rep) {
  // Commit gate for child reuse: the chunk must be the one the slot most
  // recently dispatched — a stale InOrder-buffered commit retiring after
  // the slot moved on must not mark the NEW occupant's memory clean.
  if (Worker >= 1 && Worker <= Slots.size()) {
    SlotState &S = Slots[Worker - 1];
    if (S.Used && Chunk == S.CurChunk)
      S.LastCommitOk = true;
  }
  if (TemplatePid < 0)
    return; // parent state is authoritative; the respawn resyncs wholesale
  std::vector<uint8_t> Cmd;
  appendCmdHeader(Cmd, OpApply, 0);
  appendCommitRecord(Cmd, Worker, Rep);
  const uint64_t PayloadLen = Cmd.size() - CmdHeaderBytes;
  std::memcpy(Cmd.data() + 1, &PayloadLen, sizeof(PayloadLen));
  if (!sendAll(Cmd.data(), Cmd.size()))
    return;
  ++CommitsSinceSpawn;
  if (!AllowReuse)
    return;
  // Keep the record for resident children that miss it, trimmed to what
  // one redispatch may carry, so every suffix of the history fits.
  HistoryBytes += PayloadLen;
  History.push_back(std::move(Cmd));
  while (HistoryBytes > MaxCatchUpBytes) {
    HistoryBytes -= History.front().size() - CmdHeaderBytes;
    History.pop_front();
    ++HistoryBase;
  }
}

void WorkerPool::engageCatchUp() { CatchUp = AllowReuse; }

bool WorkerPool::pump(unsigned Slot, ChunkChannel &Ch) {
  SlotState &S = Slots[Slot];
  bool Final = false;
  uint8_t Bells[256];
  for (;;) {
    const ssize_t N = ::read(S.DoorbellR, Bells, sizeof(Bells));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Ch.BytesCopied += static_cast<uint64_t>(N);
    for (ssize_t I = 0; I != N; ++I) {
      const uint8_t B = Bells[I];
      if ((B & RingDoorbellTagMask) != S.Attempt)
        continue; // stale: a previous occupant of this slot
      const uint8_t Kind = B & RingDoorbellKindMask;
      if (Kind == RingDoorbellData)
        continue; // drained below regardless
      if (Kind == RingDoorbellFinish) {
        // The child finished publishing and is resident on its work pipe:
        // the record is final even if an injected truncation keeps the
        // frame from looking whole — but the child is NOT reaped.
        S.FinishSeen = true;
        Final = true;
        continue;
      }
      S.TerminalSeen = true;
      Final = true;
      if (Kind == RingDoorbellAbnormal && !Ch.Done)
        Ch.Abnormal = true;
    }
  }
  // Drain after the doorbells so a terminal byte observes every record
  // byte the child managed to publish.
  S.Ring->drainInto(Ch.Buf);
  if (!Ch.Done &&
      (Final || wireFrameLooksComplete(Ch.Buf.data(), Ch.Buf.size()))) {
    Ch.Done = true;
  }
  if (Ch.Done)
    S.RecordDone = true;
  return Ch.Done;
}

void WorkerPool::killSlot(unsigned Slot) {
  KillCmd Kill{Slot};
  std::vector<uint8_t> Cmd;
  appendCmdHeader(Cmd, OpKill, sizeof(Kill));
  appendRaw(Cmd, &Kill, sizeof(Kill));
  (void)sendAll(Cmd.data(), Cmd.size());
}

void WorkerPool::poisonTemplate() {
  ++Faults;
  killTemplateHard();
}

//===----------------------------------------------------------------------===
// WorkerPool: template side
//===----------------------------------------------------------------------===

void WorkerPool::templateMain(int CtlFd) {
  // Any fatalError below this point must _exit, never abort(): an abort in
  // a forked template would dump core and re-run parent atexit handlers.
  markForkedChild();
  ignoreSigpipeOnce();
  const pid_t TmplPid = ::getpid();
#ifdef __linux__
  // Belt and braces: if the parent dies without tearing us down, die too
  // instead of lingering as an orphaned resident process.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif

  std::vector<pid_t> Child(Slots.size(), -1);
  std::vector<uint8_t> ChildTag(Slots.size(), 0);

  const auto ReapDoorbell = [&](unsigned Slot, int Status) {
    const bool Clean = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
    writeDoorbell(Slots[Slot].DoorbellW,
                  static_cast<uint8_t>(
                      (Clean ? RingDoorbellClean : RingDoorbellAbnormal) |
                      (ChildTag[Slot] & RingDoorbellTagMask)));
  };

  const auto ReapSweep = [&] {
    for (unsigned I = 0; I != Child.size(); ++I) {
      if (Child[I] < 0)
        continue;
      int Status = 0;
      const pid_t R = ::waitpid(Child[I], &Status, WNOHANG);
      if (R == Child[I]) {
        Child[I] = -1;
        ReapDoorbell(I, Status);
      }
    }
  };

  const auto KillReap = [&](unsigned Slot, bool Doorbell) {
    if (Child[Slot] < 0)
      return;
    ::kill(Child[Slot], SIGKILL);
    int Status = 0;
    waitpidRetry(Child[Slot], &Status);
    Child[Slot] = -1;
    if (Doorbell)
      ReapDoorbell(Slot, Status);
  };

  const auto Shutdown = [&] {
    // Kill every child before reaping any, so the residents die in
    // parallel instead of one exit after another.
    for (const pid_t P : Child)
      if (P >= 0)
        ::kill(P, SIGKILL);
    for (const pid_t P : Child) {
      int Status = 0;
      if (P >= 0)
        waitpidRetry(P, &Status);
    }
    _exit(0);
  };

  std::vector<uint8_t> Buf;
  for (;;) {
    bool AnyChild = false;
    for (const pid_t P : Child)
      AnyChild |= P >= 0;
    pollfd Pfd{CtlFd, POLLIN, 0};
    const int N = ::poll(&Pfd, 1, AnyChild ? 1 : -1);
    if (N < 0 && errno != EINTR)
      Shutdown();
    ReapSweep();
    if (N > 0 && (Pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
      uint8_t Tmp[1 << 16];
      const ssize_t R = ::read(CtlFd, Tmp, sizeof(Tmp));
      if (R < 0) {
        if (errno != EINTR)
          Shutdown();
      } else if (R == 0) {
        Shutdown(); // parent closed the control pipe: teardown
      } else {
        Buf.insert(Buf.end(), Tmp, Tmp + R);
      }
    }

    // Dispatch every complete command in arrival (= commit) order.
    size_t Pos = 0;
    while (Buf.size() - Pos >= CmdHeaderBytes) {
      const uint8_t Op = Buf[Pos];
      uint64_t PayloadLen = 0;
      std::memcpy(&PayloadLen, Buf.data() + Pos + 1, sizeof(PayloadLen));
      if (Buf.size() - Pos - CmdHeaderBytes < PayloadLen)
        break;
      const uint8_t *Payload = Buf.data() + Pos + CmdHeaderBytes;
      Pos += CmdHeaderBytes + static_cast<size_t>(PayloadLen);

      if (Op == OpApply) {
        // Replay one commit so our memory stays equal to committed state.
        // A malformed command means the parent and template disagree about
        // the protocol — unrecoverable, and exiting surfaces it as a pool
        // fault the parent absorbs with cold forks.
        if (!replayCommitRecords(Spec, Config, Payload,
                                 static_cast<size_t>(PayloadLen)))
          _exit(13);
      } else if (Op == OpFork) {
        ForkCmd Fork;
        if (PayloadLen != sizeof(Fork))
          _exit(13);
        std::memcpy(&Fork, Payload, sizeof(Fork));
        const unsigned Slot = static_cast<unsigned>(Fork.Slot);
        if (Slot >= Slots.size())
          _exit(13);
        // The parent only re-forks a slot it confirmed quiet, but be
        // safe: a leftover child here must die before its successor runs.
        KillReap(Slot, /*Doorbell=*/false);
        ChildTag[Slot] = static_cast<uint8_t>(Fork.Attempt);
        const pid_t Pid = ::fork();
        if (Pid < 0) {
          // Can't run the chunk: report an abnormal completion so the
          // parent requeues it instead of waiting forever.
          writeDoorbell(Slots[Slot].DoorbellW,
                        static_cast<uint8_t>(RingDoorbellAbnormal |
                                             (ChildTag[Slot] &
                                              RingDoorbellTagMask)));
          continue;
        }
        if (Pid == 0) {
          ::close(CtlFd);
#ifdef __linux__
          ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
          // PDEATHSIG only fires on a FUTURE death of the parent: if the
          // template was killed (poison, hard retirement) between fork()
          // and the prctl above, no signal will ever come and we are
          // already reparented. Running on would make us a ghost producer
          // on the slot's ring and — worse — a second resident reader on
          // its work pipe, stealing redispatch commands addressed to our
          // legitimate successor. Detect the reparenting and bow out.
          if (::getppid() != TmplPid)
            _exit(0);
          for (unsigned I = 0; I != Slots.size(); ++I)
            if (I != Slot) {
              if (Slots[I].DoorbellW >= 0)
                ::close(Slots[I].DoorbellW);
              if (Slots[I].WorkR >= 0)
                ::close(Slots[I].WorkR);
            }
          runWireChildRing(Spec, Config, /*Worker=*/Slot + 1, Fork.Chunk,
                           Fork.First, Fork.Last, *Slots[Slot].Ring,
                           Slots[Slot].DoorbellW,
                           static_cast<uint8_t>(Fork.Attempt),
                           AllowReuse ? Slots[Slot].WorkR : -1, Fork.Fault);
          // runWireChildRing never returns.
        }
        Child[Slot] = Pid;
      } else if (Op == OpKill) {
        KillCmd Kill;
        if (PayloadLen != sizeof(Kill))
          _exit(13);
        std::memcpy(&Kill, Payload, sizeof(Kill));
        const unsigned Slot = static_cast<unsigned>(Kill.Slot);
        if (Slot >= Slots.size())
          _exit(13);
        // Kill + reap with a terminal doorbell; a no-op when the reap
        // sweep already handled the child (its doorbell is in flight).
        KillReap(Slot, /*Doorbell=*/true);
      } else {
        _exit(13);
      }
    }
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<ptrdiff_t>(Pos));
  }
}

//===----------------------------------------------------------------------===
// Shared chunk-spawn layer (both engines, both transports)
//===----------------------------------------------------------------------===

bool alter::spawnChunkChild(const LoopSpec &Spec,
                            const ExecutorConfig &Config, WorkerPool *Pool,
                            unsigned Slot, int64_t Chunk, int64_t First,
                            int64_t Last, const ArmedFault &Fault,
                            const std::vector<int> &CloseInChild,
                            ChunkChannel &Ch) {
  Ch = ChunkChannel();
  ArmedFault ChildFault = Fault;
  bool Poisoned = false;
  if (Fault.Armed && Fault.Kind == FaultKind::TemplatePoison) {
    // The fault targets the pool, not the chunk: kill the template (the
    // next warm fork respawns it) and run this chunk cold and clean.
    if (Pool)
      Pool->poisonTemplate();
    ChildFault = ArmedFault();
    Poisoned = true;
  }
  if (Pool && !Poisoned &&
      Pool->warmFork(Slot, Chunk, First, Last, ChildFault, Ch))
    return true;

  // Cold path: the legacy fork-from-parent + private pipe transport.
  int Fds[2];
  if (::pipe(Fds) != 0)
    return false;
  const pid_t ParentPid = ::getpid();
  const pid_t Pid = forkFlushed();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return false;
  }
  if (Pid == 0) {
#ifdef __linux__
    // Die with the parent, as the warm children do; a parent that died
    // before the prctl sends no signal, so check for the reparenting too.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
    if (::getppid() != ParentPid)
      _exit(0);
    ::close(Fds[0]);
    // Close the other in-flight parent-side read ends inherited by this
    // child so their EOF semantics stay clean.
    for (const int Fd : CloseInChild)
      if (Fd >= 0)
        ::close(Fd);
    runWireChild(Spec, Config, /*Worker=*/Slot + 1, Chunk, First, Last,
                 Fds[1], ChildFault);
    // runWireChild never returns.
  }
  ::close(Fds[1]);
  Ch.Launched = true;
  Ch.Warm = false;
  Ch.PollFd = Fds[0];
  Ch.DirectPid = Pid;
  return true;
}

bool alter::pumpChunkChannel(WorkerPool *Pool, unsigned Slot,
                             ChunkChannel &Ch) {
  if (Ch.Warm)
    return Pool->pump(Slot, Ch);
  uint8_t Buf[1 << 16];
  const ssize_t N = ::read(Ch.PollFd, Buf, sizeof(Buf));
  if (N < 0) {
    if (errno == EINTR)
      return Ch.Done;
    // Hard error == truncation; the frame check downstream rejects
    // whatever arrived.
    ::close(Ch.PollFd);
    Ch.PollFd = -1;
    Ch.Done = true;
  } else if (N == 0) {
    ::close(Ch.PollFd);
    Ch.PollFd = -1;
    Ch.Done = true; // EOF: the whole commit message has arrived
  } else {
    Ch.Buf.insert(Ch.Buf.end(), Buf, Buf + N);
    Ch.BytesCopied += static_cast<uint64_t>(N);
  }
  return Ch.Done;
}

void alter::killChunkChild(WorkerPool *Pool, unsigned Slot,
                           ChunkChannel &Ch) {
  if (Ch.Warm) {
    Pool->killSlot(Slot);
    return;
  }
  if (Ch.DirectPid > 0)
    ::kill(Ch.DirectPid, SIGKILL);
}
