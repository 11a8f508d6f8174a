//===- runtime/WorkerPool.h - Warm fork pool + chunk transport --*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fork engines' steady-state transport: a resident *template* process
/// per run plus one shared-memory commit ring per worker slot.
///
/// Fork-per-chunk pays twice per chunk: fork() must write-protect the full
/// parent address space (and the parent then COW-faults its way back), and
/// the commit message crosses a kernel pipe. The pool amortizes both. The
/// parent forks the template once; the template is a small, quiescent
/// process whose memory is kept equal to COMMITTED state by streaming
/// every commit to it (write log, reduction slots, arena cursors) over a
/// control pipe, in commit order. Per-chunk children are then re-forked
/// FROM THE TEMPLATE on command and publish their commit frames into
/// their slot's CommitRing; only 1-byte doorbells cross pipes.
///
/// Control protocol (parent -> template, framed commands, FIFO):
///   Apply  — replay one commit into template memory. Because the pipe is
///            FIFO, a Fork command sent after N commits forks a child that
///            sees exactly those N commits — the same snapshot a cold fork
///            taken at that moment would see, which is why the executors'
///            SnapshotSeq logic carries over unchanged.
///   Fork   — fork a child for (slot, chunk, range, armed fault). The
///            child runs runWireChildRing. If the slot's previous child is
///            somehow still unreaped, it is killed and reaped first.
///   Kill   — SIGKILL + reap the slot's child (deadline enforcement).
///   EOF    — teardown: SIGKILL every child, then reap them all, _exit.
///
/// Completion signals (template/child -> parent, per-slot doorbell pipe):
/// the child writes RingDoorbellData after each published piece; the
/// template writes RingDoorbellClean/Abnormal when it reaps the child. A
/// record is complete when its frame is whole (wireFrameLooksComplete) or
/// a terminal doorbell arrives — the frame check covers a template that
/// died mid-chunk, the terminal doorbell covers truncated/corrupt frames
/// that will never look whole. Every doorbell byte carries the slot's
/// 6-bit fork-attempt tag so stale bytes from a previous occupant are
/// dropped.
///
/// Fork-free steady state (pipeline engine): a ring child does not exit
/// after publishing its record — it rings a Finish doorbell and blocks on
/// its slot's WORK PIPE. If the chunk then commits, the parent dispatches
/// the slot's next chunk to that same resident child with a single
/// WireNextCmd write: no fork anywhere, by anyone. The child's memory is
/// its snapshot plus its own committed (written-through) values. Until
/// the run fails a validation, the executor keeps the slot's old
/// SnapshotSeq and validation stays sound — the snapshot just ages, for
/// at most 64 consecutive redispatches. The pool keeps a bounded
/// history of the Apply records it streams to the template. After the
/// first failed validation (engageCatchUp) a redispatch carries the
/// records the child missed since its snapshot; the child replays them
/// before the chunk, so the executor gives it a fresh SnapshotSeq exactly
/// as for a fork. A child whose missed records reach back past the
/// history (MaxCatchUpBytes) re-forks instead. Runs without a failed
/// validation skip catch-up: there it would buy only copy-on-write
/// faults. Any abort, wire reject, crash, or fault on the slot leaves the
/// commit gate closed and the next dispatch re-forks from the template
/// (killing the stale resident first). Redispatch keeps the slot's
/// attempt tag: Finish is provably the old chunk's last doorbell, so no
/// stale byte can complete the new chunk, and the template's per-slot
/// pid/tag bookkeeping stays valid for kills and crash reaps.
///
/// Every pool failure (template spawn failure, dead template, injected
/// TemplatePoison) degrades the affected forks to the legacy cold
/// pipe+fork path — never to a chunk failure. The pool respawns on the
/// next warm fork; a respawn forks from the parent, whose memory IS
/// committed state, so it needs no replay catch-up.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_WORKERPOOL_H
#define ALTER_RUNTIME_WORKERPOOL_H

#include "runtime/CommitRing.h"
#include "runtime/Executor.h"
#include "runtime/TxnWire.h"
#include "support/FaultInjection.h"
#include "support/Subprocess.h"

#include <deque>
#include <memory>
#include <sys/types.h>
#include <vector>

namespace alter {

/// Parent-side state of one in-flight chunk, transport-agnostic: the
/// executors poll PollFd, pump bytes with pumpChunkChannel, and decode Buf
/// once Done — identically for a warm ring child and a cold pipe child.
struct ChunkChannel {
  /// A child is running (warm or cold). False after a fork failure.
  bool Launched = false;
  /// Forked from the warm template (ring transport) rather than cold from
  /// the parent (pipe transport or pool fallback).
  bool Warm = false;
  /// Redispatched to the slot's resident child with no fork at all (the
  /// fork-free steady state). Implies Warm. Once the run has engaged
  /// catch-up (WorkerPool::engageCatchUp) the child replays every commit
  /// it missed before running the chunk, so the executor takes a fresh
  /// SnapshotSeq, as for a fork. Before that, the executor must keep the
  /// slot's old SnapshotSeq: the child's memory predates every commit
  /// since its snapshot except its own.
  bool Reused = false;
  /// What the executor polls: the pipe read end (cold) or the slot's
  /// doorbell read end (warm; pool-owned, do not close).
  int PollFd = -1;
  /// Cold child's pid, reaped by the executor; -1 for warm children,
  /// which the template reaps.
  pid_t DirectPid = -1;
  /// The assembled commit message.
  std::vector<uint8_t> Buf;
  /// The full record arrived (or the child is gone); Buf is final.
  bool Done = false;
  /// Warm only: the template reaped the child after a signal or nonzero
  /// exit. Cold children report through their wait status instead.
  bool Abnormal = false;
  /// Bytes that crossed a kernel pipe for this chunk (whole message when
  /// cold, doorbell bytes when warm). Feeds RunStats::WireBytesCopied.
  uint64_t BytesCopied = 0;
};

/// One run's warm template process and its per-slot commit rings. Created
/// by a fork engine when ExecutorConfig::Transport == TransportKind::Ring;
/// ladder sub-runs construct fresh engines, so they get private pools and
/// rings automatically. After a successful run the engine retires the
/// template with detachTemplate() and reaps it later (ParkedChild), so no
/// run waits for the previous one's teardown.
class WorkerPool {
public:
  /// Allocates the rings, doorbell pipes, and work pipes for \p NumSlots
  /// worker slots. The template itself is forked lazily on the first warm
  /// fork (and re-forked after a fault).
  /// \p AllowReuse enables the fork-free steady state (child redispatch);
  /// only the pipeline engine may pass true — ForkJoin's round-local
  /// validation cannot see commits older than the current round, which a
  /// reused child's snapshot predates.
  WorkerPool(const LoopSpec &Spec, const ExecutorConfig &Config,
             unsigned NumSlots, bool AllowReuse);

  /// Tears the template down (control-pipe EOF makes it kill and reap any
  /// straggling children, then exit) and reaps it.
  ~WorkerPool();

  /// True when every slot's ring mapping and pipes came up. False after
  /// resource exhaustion at construction (ENOMEM on a ring mmap, EMFILE on
  /// a pipe) or a failed ring respawn in a hard retirement — a contained
  /// outcome: warmFork refuses, and the owning engine should drop the pool
  /// and run the whole loop on the cold pipe transport (counting a
  /// TransportDowngrade).
  bool valid() const { return !Invalid; }

  /// Site code of the first setup failure when !valid(), matching the
  /// ResourceFault trace-event convention: 0 = ring mmap, 1 = pipe setup.
  unsigned setupFaultSite() const { return FailSite; }

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// Runs chunk \p Chunk on \p Slot and fills \p Ch: redispatches the
  /// slot's resident child when that is sound (reuse allowed, the child is
  /// alive and idle, and its previous chunk committed), otherwise forks
  /// from the warm template. Returns false when the pool is unusable
  /// (spawn failed, or the template died) — the caller falls back to a
  /// cold fork. Counts a pool fault on failure.
  bool warmFork(unsigned Slot, int64_t Chunk, int64_t First, int64_t Last,
                const ArmedFault &Fault, ChunkChannel &Ch);

  /// Streams one validated commit to the template (write log, reduction
  /// slots, arena cursor for arena index \p Worker). Call at the exact
  /// point the parent applies the commit itself, before any later fork.
  /// No-op while the template is down (the respawn resyncs wholesale).
  /// With reuse allowed the record also enters the history that caught-up
  /// redispatches replay.
  /// \p Chunk identifies the committed chunk: when it matches the chunk
  /// the slot most recently dispatched, the slot's resident child becomes
  /// reuse-eligible — its written-through memory is now committed state.
  /// (A stale commit retiring late from the InOrder buffer, after the
  /// slot moved on to another chunk, must NOT mark the current occupant
  /// clean; the chunk match is what prevents that.)
  void pushCommit(unsigned Worker, int64_t Chunk, const ChildReport &Rep);

  /// From now on, redispatch resident children with the commits they
  /// missed (see the file comment). The pipeline engine calls it at its
  /// first failed validation. Idempotent; a no-op without reuse.
  void engageCatchUp();

  /// Parent-side pump for a warm slot: drains doorbell bytes and the ring,
  /// and marks Ch.Done (and Abnormal) per the completion rules. Returns
  /// Ch.Done.
  bool pump(unsigned Slot, ChunkChannel &Ch);

  /// Asks the template to SIGKILL and reap \p Slot's child; the terminal
  /// doorbell completes the channel through the normal pump path.
  void killSlot(unsigned Slot);

  /// Injected TemplatePoison: kills the current template outright (the
  /// pending warm fork degrades to cold; the next one respawns).
  void poisonTemplate();

  uint64_t poolFaults() const { return Faults; }
  uint64_t childReuses() const { return Reuses; }

  /// Retires the current template now (idempotent; the destructor would do
  /// the same). Executors call it before reading templateRusage() so the
  /// final incarnation's CPU time is folded in.
  void retire() { retireTemplate(); }

  /// Retires the current template without waiting for it: closes its
  /// control pipe, which makes it SIGKILL its children, reap them and
  /// exit, and returns its pid (-1 when no template is up) for the caller
  /// to reap. The lineage's CPU time arrives with that reap, not in
  /// templateRusage().
  pid_t detachTemplate();

  /// Accumulated rusage of every template incarnation reaped so far. Linux
  /// wait4 reports a process's own usage PLUS that of its waited-for
  /// descendants, and the template reaps every warm child, so this is the
  /// transitive CPU cost of the whole warm lineage.
  const ChildRusage &templateRusage() const { return TemplateUsage; }

  /// Bytes currently buffered across all slot commit rings (parent-side
  /// backlog gauge for the timeline sampler).
  size_t ringDepthBytes() const;

private:
  struct SlotState {
    std::unique_ptr<CommitRing> Ring;
    int DoorbellR = -1; // parent polls (O_NONBLOCK; parent-owned)
    int DoorbellW = -1; // parent keeps a copy for respawned templates
    int WorkR = -1;     // resident child blocks here for redispatch
    int WorkW = -1;     // parent writes WireNextCmd here
    uint8_t Attempt = 0;
    bool Used = false;        // a warm fork has occupied this slot
    bool TerminalSeen = true; // last occupant's terminal doorbell arrived
    bool RecordDone = true;   // last occupant's record arrived whole
    bool FinishSeen = false;  // the occupant rang Finish: resident + idle
    bool LastCommitOk = false; // the occupant's own chunk committed
    int64_t CurChunk = -1;     // chunk most recently dispatched here
    unsigned ReuseChain = 0;   // consecutive redispatches of this child
    uint64_t Snapshot = 0; // commits since spawn in the occupant's memory
  };

  void resetSlot(SlotState &S);
  bool ensureTemplate();
  void retireTemplate();
  void killTemplateHard();
  bool sendAll(const void *Data, size_t Size);
  [[noreturn]] void templateMain(int ControlFd);

  const LoopSpec &Spec;
  const ExecutorConfig &Config;
  const bool AllowReuse;
  bool Invalid = false; // a ring/pipe failed: warm forks permanently refuse
  unsigned FailSite = 0; // first failure site (0 ring mmap, 1 pipe setup)
  std::vector<SlotState> Slots;
  pid_t TemplatePid = -1;
  ChildRusage TemplateUsage; // summed over reaped template incarnations
  int ControlFd = -1; // parent's write end of the current template's pipe
  unsigned CommitsSinceSpawn = 0;
  bool CatchUp = false; // engageCatchUp() was called
  /// Full Apply commands of commits HistoryBase, HistoryBase + 1, ... since
  /// spawn, holding at most MaxCatchUpBytes of records.
  std::deque<std::vector<uint8_t>> History;
  size_t HistoryBytes = 0;
  uint64_t HistoryBase = 0;
  uint64_t Faults = 0;
  uint64_t Reuses = 0;
};

/// Launches a child for one chunk — the single spawn path both executors
/// and both transports share. Warm-forks from \p Pool when it is present
/// and healthy; otherwise cold-forks from the parent with a private pipe
/// (closing \p CloseInChild, the other in-flight cold read ends, in the
/// child). An armed TemplatePoison fault strikes here. Returns false (and
/// leaves Ch unlaunched) only when the cold fork itself fails.
bool spawnChunkChild(const LoopSpec &Spec, const ExecutorConfig &Config,
                     WorkerPool *Pool, unsigned Slot, int64_t Chunk,
                     int64_t First, int64_t Last, const ArmedFault &Fault,
                     const std::vector<int> &CloseInChild, ChunkChannel &Ch);

/// Pumps one readable channel: warm slots delegate to Pool->pump, cold
/// slots read the pipe (EOF or a hard error completes them). Returns
/// Ch.Done.
bool pumpChunkChannel(WorkerPool *Pool, unsigned Slot, ChunkChannel &Ch);

/// Kills an in-flight chunk child (deadline enforcement): SIGKILL for a
/// cold child, a Kill command to the template for a warm one. Completion
/// still arrives through pumpChunkChannel.
void killChunkChild(WorkerPool *Pool, unsigned Slot, ChunkChannel &Ch);

} // namespace alter

#endif // ALTER_RUNTIME_WORKERPOOL_H
