//===- runtime/TxnWire.h - Child->parent commit wire format -----*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The commit message a forked child ships to its parent, shared by the
/// round-barrier ForkJoinExecutor and the pipelined PipelineExecutor: the
/// chunk's access sets, write log, reduction deltas, arena cursor, and
/// instrumentation counters.
///
/// The format is compressed (§4.1 ships these over every commit, so pipe
/// traffic is a first-order cost):
///
///  - access sets carry their word count and their normalized word runs
///    (AccessSet) as varint (gap, length) pairs, written as the worker
///    built them — array ranges instrumented by induction variables are a
///    handful of runs;
///  - the write log's entry table is delta + varint encoded
///    (WriteLog::serializeCompact);
///  - each message reports the byte count the uncompressed format would
///    have used, so RunStats can expose the compression ratio.
///
/// And hardened — a corrupt or truncated message must be REJECTED, never
/// trusted and never fatal, so the executors can contain the failure to the
/// chunk that produced it:
///
///  - every message is framed as magic | payload length | CRC32(payload);
///    the parent verifies all three before decoding a single payload byte;
///  - decoding is allocation-bounded (entry counts are validated against
///    the physical message size before any reserve) and returns failure on
///    structural inconsistencies instead of aborting;
///  - pipe I/O retries on EINTR and treats hard errors as truncation.
///
/// One format, one magic (CommitFrameMagic): parent and children are forks
/// of one binary and frames never persist, so there is nothing to stay
/// compatible with. After the reduction slots every frame carries two
/// sections: TRACE, a u64 event count followed by that many fixed-size
/// (6 x u64) TraceEvents recorded inside the child (chunk start/exec,
/// serialize, commit attempt; the count is 0 below TraceLevel::Events),
/// and METRICS, a u64 blob length followed by the child's sparse
/// MetricsRegistry wire form (per-chunk latency/size histograms,
/// take-and-reset per frame; the length is 0 with metrics off). Counts and
/// lengths are validated against the physical bytes remaining before any
/// allocation.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_TXNWIRE_H
#define ALTER_RUNTIME_TXNWIRE_H

#include "memory/AccessSet.h"
#include "memory/WriteLog.h"
#include "runtime/CommitRing.h"
#include "runtime/Executor.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace alter {

/// Everything the parent needs to validate and commit one child's chunk.
struct ChildReport {
  bool LimitExceeded = false;
  uint64_t WorkNs = 0;
  /// The transaction's footprint: the four counts shipped in the frame,
  /// and the sizes of the decoded Reads and Writes.
  TxnCounts Counts;
  uint64_t MemTrafficBytes = 0;
  uint64_t BumpOffset = 0;
  /// Bytes the uncompressed wire format would have occupied (child-side
  /// computation, shipped in the message).
  uint64_t RawWireBytes = 0;
  /// Bytes the message actually occupied (parent-side, from the pipe).
  uint64_t WireBytes = 0;
  AccessSet Reads;
  AccessSet Writes;
  WriteLog Log;
  std::vector<TxnContext::RedSlotState> Slots;
  /// Child-side trace events from the message's TRACE section (empty below
  /// TraceLevel::Events).
  std::vector<TraceEvent> Trace;
  /// Child-side metrics from the message's METRICS section (empty whenever
  /// the run has metrics off). The parent merges it into
  /// RunResult::Metrics.
  MetricsRegistry Metrics;
};

/// The first u64 of every commit frame ("ALTER5", little-endian).
constexpr uint64_t CommitFrameMagic = 0x35414c544552ULL;

/// Child side: applies an armed wire fault to \p Frame just before it
/// ships — truncation, a bit flip, or a stall. Every other kind is a no-op
/// here (crash and kill faults strike during execution, parent-side kinds
/// before dispatch).
void applyFrameFault(std::vector<uint8_t> &Frame, const ArmedFault &Fault);

/// Child side: executes iterations [\p FirstIter, \p LastIter) of chunk
/// \p Chunk of \p Spec transactionally as \p Worker, writes the framed
/// commit message to \p Fd, and _exit()s. Never returns. Applies \p Fault
/// (taken from the FaultPlan by the parent at fork time) when armed. At
/// TraceLevel::Events the message carries the chunk's lifecycle events in
/// its TRACE section.
[[noreturn]] void runWireChild(const LoopSpec &Spec,
                               const ExecutorConfig &Config, unsigned Worker,
                               int64_t Chunk, int64_t FirstIter,
                               int64_t LastIter, int Fd,
                               const ArmedFault &Fault = ArmedFault());

/// One redispatch command on a slot's work pipe (parent -> resident
/// child): replay the CatchUpBytes of commit records that follow it, then
/// run this chunk against the memory you have. Sent only after the
/// child's previous chunk committed, so that memory is a subset of
/// committed state. Raw little-endian struct — parent and child are forks
/// of one process, so layouts agree by construction.
struct WireNextCmd {
  int64_t Chunk;
  int64_t First;
  int64_t Last;
  ArmedFault Fault;
  /// Bytes of commit records (appendCommitRecord's form, back to back)
  /// that follow this command on the pipe: the commits the child missed
  /// since its snapshot. 0 for a redispatch that keeps the old snapshot.
  uint64_t CatchUpBytes;
  /// Attempt tag of the child this command is addressed to. If the target
  /// dies between the parent's dispatch write and its work-pipe read (the
  /// parent holds the read end, so the pipe — and the command — survive),
  /// the slot's NEXT resident child would otherwise consume the stale
  /// command after its own chunk and execute that chunk a second time,
  /// corrupting the ring/doorbell stream under its own tag. Children drop
  /// commands whose tag is not theirs.
  uint8_t Tag;
};

/// Largest catch-up one WireNextCmd may carry. A work pipe holds at most
/// the current command plus one stale command addressed to a dead
/// predecessor, so keeping each command within half of the kernel's
/// default 64 KiB pipe buffer means a dispatch write never blocks.
constexpr size_t MaxCatchUpBytes = (64 << 10) / 2 - sizeof(WireNextCmd);

/// Outcome of readWorkCommand.
enum class WorkCmdStatus {
  Ok,        ///< a command addressed to the caller, with its whole catch-up
  Closed,    ///< EOF or a hard error: the pool is tearing down
  Malformed, ///< the command claims more catch-up than MaxCatchUpBytes
};

/// Resident-child side of the work pipe: reads commands from \p WorkFd
/// until one carries attempt tag \p Tag, leaving it in \p Cmd and its
/// catch-up records in \p CatchUp. A command with another tag is consumed
/// whole (header and catch-up) and dropped. The catch-up length is checked
/// against MaxCatchUpBytes before anything is allocated.
WorkCmdStatus readWorkCommand(int WorkFd, uint8_t Tag, WireNextCmd &Cmd,
                              std::vector<uint8_t> &CatchUp);

/// Appends the replay record of one committed chunk to \p Out: the
/// committing worker's arena cursor, the reduction slots, and the compact
/// write log. Records are self-delimiting, so they concatenate. The warm
/// template receives one per commit, and a resident child receives the
/// ones it missed in a redispatch's catch-up.
void appendCommitRecord(std::vector<uint8_t> &Out, unsigned Worker,
                        const ChildReport &Rep);

/// Replays the back-to-back commit records in [\p Data, \p Data + \p Size)
/// into this process's memory, in order: write log, reduction slots, arena
/// cursor — what the parent did at each commit. Returns false at the first
/// malformed record (the caller must then exit: its memory is no longer a
/// known state).
bool replayCommitRecords(const LoopSpec &Spec, const ExecutorConfig &Config,
                         const uint8_t *Data, size_t Size);

/// Ring-transport variant of runWireChild: same transactional execution
/// and the same frame, but the message is published into
/// \p Ring (shared with the parent) instead of a pipe, with a
/// (RingDoorbellData | \p DoorbellTag) byte written to \p DoorbellFd after
/// every accepted piece so the parent's poll loop wakes to drain, and a
/// RingDoorbellFinish byte once the record is fully published. Called by
/// the warm template's forked children (WorkerPool). After Finish the
/// child does not exit: it blocks on \p WorkFd for a WireNextCmd, replays
/// the command's catch-up, and runs that chunk in the same address space —
/// the fork-free steady state. EOF or a short read on \p WorkFd exits
/// cleanly; an oversized or malformed catch-up exits abnormally;
/// \p WorkFd < 0 restores the exit-after-one-chunk behavior. Never
/// returns.
[[noreturn]] void runWireChildRing(const LoopSpec &Spec,
                                   const ExecutorConfig &Config,
                                   unsigned Worker, int64_t Chunk,
                                   int64_t FirstIter, int64_t LastIter,
                                   CommitRing &Ring, int DoorbellFd,
                                   uint8_t DoorbellTag, int WorkFd,
                                   const ArmedFault &Fault = ArmedFault());

/// Child side: serializes the framed commit message for a transaction
/// already executed in \p Ctx (after captureRedo): fixed header,
/// compressed access sets, write log, reduction slots, TRACE section, all
/// wrapped in the magic | length | CRC32 frame. The uncorrupted building
/// block behind runWireChild, exposed so other transactional children (the
/// stage-pipeline workers) can ship through the identical validate/commit
/// path. Records the Serialize/CommitAttempt trace events into \p Trace
/// before encoding the TRACE section. With \p Metrics null the METRICS
/// section is empty; with a registry it carries the registry (after
/// recording this frame's serialize latency and sizes into it), then
/// RESETS it — each frame ships the deltas since the previous one, so the
/// parent-side merge across frames double-counts nothing.
std::vector<uint8_t> encodeCommitFrame(TxnContext &Ctx,
                                       const ExecutorConfig &Config,
                                       unsigned Worker, int64_t Chunk,
                                       uint64_t WorkNs, TraceBuffer &Trace,
                                       MetricsRegistry *Metrics = nullptr);

/// True when \p Bytes holds a complete frame: the header has arrived and
/// the payload-length field is satisfied. A corrupt magic makes the length
/// untrustworthy, so any full header with a bad magic counts as complete —
/// the decode path rejects it either way. Used by the ring transport,
/// which has no EOF to delimit a record.
bool wireFrameLooksComplete(const uint8_t *Bytes, size_t Size);

/// Parent side: verifies the frame (magic, length, CRC32) and decodes one
/// child's message into \p Rep. Returns false — with \p Error describing
/// the rejection — on any truncation, corruption, or structural
/// inconsistency. Never aborts and never trusts unverified bytes.
bool decodeChildReport(const std::vector<uint8_t> &Bytes,
                       const LoopSpec &Spec, const RuntimeParams &Params,
                       ChildReport &Rep, std::string &Error);

/// Serializes the normalized \p Set in the compressed form (word count,
/// run count, then each run as a varint gap and length). Exposed for tests
/// and size accounting.
void serializeAccessSet(std::vector<uint8_t> &Out, const AccessSet &Set);

/// Inverse of serializeAccessSet: appends each decoded run to \p Set, which
/// an empty \p Set leaves normalized; \p Consumed receives the encoded
/// length. Returns false on corrupt input (the set may be partially
/// filled).
bool deserializeAccessSet(const uint8_t *Data, size_t Size, AccessSet &Set,
                          size_t &Consumed);

/// Bytes the uncompressed (8 bytes per word key) access-set format uses.
size_t rawAccessSetBytes(const AccessSet &Set);

/// CRC32 (IEEE 802.3 polynomial) used by the message frame. Exposed for
/// tests.
uint32_t wireCrc32(const uint8_t *Data, size_t Size);

/// Blocking full read of \p Fd until EOF. Retries on EINTR; a hard read
/// error returns the bytes collected so far (the frame check downstream
/// rejects the truncation).
std::vector<uint8_t> readAllFromPipe(int Fd);

} // namespace alter

#endif // ALTER_RUNTIME_TXNWIRE_H
