//===- runtime/CommitJournal.h - Crash-consistent commit journal -*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Write-ahead commit journal and restart recovery. ALTER's validation
/// machinery guarantees the committed prefix of a speculative run equals a
/// sequential execution — but only while the parent lives. The journal
/// makes that prefix durable: every committed range of iterations appends
/// one CRC32'd, length-prefixed frame naming the range (chunk, first,
/// last), and a restarted parent replays the valid prefix and resumes
/// dispatch at the first uncommitted iteration.
///
/// Replay is by *re-execution*: a chunk's write log holds absolute virtual
/// addresses that are invalid after re-exec (ASLR, fresh arena mappings),
/// so the journal does not record it. Workload::setUp is deterministic,
/// and RunResult::CommitOrder documents that a parallel run is equivalent
/// to replaying its chunks serially in commit order — so recovery rebuilds
/// initial state and re-executes each journaled iteration range in journal
/// order, which is exactly that serial equivalent.
///
/// Torn-tail rule: on open, frames are validated front to back; the first
/// structurally invalid or CRC-failing frame and everything after it are
/// discarded (the file is truncated there). A discarded-but-committed chunk
/// merely re-executes as fresh work; a half-written frame is never
/// replayed. Duplicate coverage of an iteration range never occurs in a
/// valid prefix — each committed range is journaled exactly once — so
/// replay is idempotent by construction.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_COMMITJOURNAL_H
#define ALTER_RUNTIME_COMMITJOURNAL_H

#include "runtime/RunResult.h"
#include "support/Metrics.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace alter {

/// When journal appends reach the disk platter.
enum class DurabilityPolicy : uint8_t {
  Off,       ///< never fdatasync (page cache only; survives parent death,
             ///< not OS death)
  PerCommit, ///< fdatasync after every appended frame
  Batched,   ///< group commit: fdatasync when N frames or T ns accumulate
};

const char *durabilityPolicyName(DurabilityPolicy Policy);

/// Run identity stamped into the journal header. A journal records the
/// effects of one deterministic run configuration; reopening with a
/// different identity is a refused config error, not a silent mismatch.
struct JournalIdentity {
  std::string Workload;   ///< registry name of the workload
  std::string Loop;       ///< optional loop tag ("" = unspecified)
  uint64_t Seed = 0;      ///< workload setUp seed
  int64_t ChunkFactor = 0;///< configured (pre-resolution) chunk factor
  std::string Schedule;   ///< schedulePolicyName of the run config
};

/// One decoded journal frame (see CommitJournal.cpp for the byte format).
struct JournalFrame {
  enum class Kind : uint8_t {
    LoopBegin = 1, ///< invocation opened: loop name, N, resolved chunk
                   ///< factor, schedule — written after the schedule
                   ///< pick, before any dispatch
    Commit = 2,    ///< iterations [FirstIter, LastIter) of Chunk reached
                   ///< committed memory: an engine applied the chunk, or
                   ///< the runner re-ran a (sub-)range of it
    LoopEnd = 3,   ///< invocation completed successfully
  };
  Kind FrameKind = Kind::Commit;
  uint64_t Invocation = 0;
  // Commit:
  int64_t Chunk = -1;
  int64_t FirstIter = 0;
  int64_t LastIter = 0; ///< half-open [FirstIter, LastIter)
  // LoopBegin:
  std::string LoopName;
  int64_t NumIterations = 0;
  int64_t ChunkFactor = 0; ///< resolved factor the engine will use
  uint8_t Schedule = 0;    ///< ScheduleKind of the planned run
};

/// Everything recovery learned about one journaled loop invocation.
struct RecoveredInvocation {
  uint64_t Invocation = 0;
  bool Finished = false; ///< LoopEnd present: replay only, nothing to resume
  std::string LoopName;
  int64_t NumIterations = 0;
  int64_t ChunkFactor = 0;
  uint8_t Schedule = 0; ///< ScheduleKind
  /// Commit frames in journal (commit) order.
  std::vector<JournalFrame> Commits;
};

/// Append-only on-disk commit journal with a pid/epoch lease.
///
/// Layout: magic, CRC-protected identity header, a fixed-offset rewritable
/// lease block (owner pid, epoch), then frames. The lease lets a restarted
/// parent refuse to double-open a journal whose owner still lives, and
/// detect that a dead owner's children (killed via PDEATHSIG) need no
/// replay coordination. Single-threaded parent-side use only.
class CommitJournal {
public:
  struct Options {
    DurabilityPolicy Policy = DurabilityPolicy::Batched;
    /// Batched: after this many frames accumulate, writeback is *initiated*
    /// without waiting (sync_file_range), pacing the page cache while the
    /// children keep running.
    uint64_t BatchFrames = 64;
    /// The durability bound: a blocking fdatasync runs once the oldest
    /// unsynced frame is this old, so a crash can only ever lose (and
    /// re-execute) the last BatchNs of committed work. The blocking flush
    /// stalls the single-threaded commit lane for the device's full flush
    /// latency (hundreds of us to several ms on ordinary and virtualized
    /// disks), which is why the frame-count trigger only initiates and the
    /// window is wide: the steady-state stall rate is flush latency /
    /// window, and the only cost of a crash inside the window is
    /// re-executing that tail — the synced prefix is never corrupted.
    /// PostgreSQL's async commit makes the same trade with a 200 ms
    /// flush cadence.
    uint64_t BatchNs = 100'000'000; // 100 ms
  };

  /// Opens (creating if absent) the journal at \p Path. An existing file is
  /// identity-checked against \p Id, its lease is checked (a live owner
  /// other than this process refuses the open), its frames are validated up
  /// to the torn tail (which is truncated away), and the lease is taken
  /// over with a bumped epoch. Returns nullptr and sets \p Error on
  /// refusal or I/O failure.
  static std::unique_ptr<CommitJournal> open(const std::string &Path,
                                             const JournalIdentity &Id,
                                             const Options &Opts,
                                             std::string *Error);
  ~CommitJournal();

  CommitJournal(const CommitJournal &) = delete;
  CommitJournal &operator=(const CommitJournal &) = delete;

  /// True when open() found at least one valid frame to recover.
  bool recovered() const { return !Invocations.empty(); }

  /// Every valid frame found at open, journal order (test introspection).
  const std::vector<JournalFrame> &frames() const { return Frames; }

  /// Hands the runner the recovery record for its next loop invocation, or
  /// nullptr when the journal has nothing recorded for it (the invocation
  /// is fresh — call beginInvocation instead). Each call advances to the
  /// next recorded invocation; when the returned record is not Finished,
  /// subsequent appends continue that invocation (no new LoopBegin).
  const RecoveredInvocation *takeRecovered();

  /// Opens a fresh invocation: writes the LoopBegin frame carrying the
  /// resolved chunk factor and planned schedule. Must precede any dispatch
  /// so a restart can reconstruct chunk geometry.
  void beginInvocation(const std::string &LoopName, int64_t NumIterations,
                       int64_t ChunkFactor, uint8_t Schedule);

  /// Appends a Commit frame for iterations [First, Last) of \p Chunk. The
  /// engines call it after validation passes and *before* the write log
  /// is applied (write-ahead); the recovering runner after its sub-runs
  /// and sequential tiers completed the range.
  void appendCommit(int64_t Chunk, int64_t First, int64_t Last);

  /// Closes the current invocation with a LoopEnd frame and flushes.
  void endInvocation();

  /// Forces buffered frames to disk (fdatasync) regardless of policy.
  /// The Interrupted path calls this so a SIGTERM'd run's committed
  /// prefix is always resumable.
  void flush();

  /// Drains journal I/O accounting accumulated since the last drain into
  /// \p S (JournalBytes/JournalFsyncs) and, when \p M is non-null, the
  /// fsync latency samples into its JournalFsyncNs histogram.
  void drainStats(RunStats &S, MetricsRegistry *M);

  const std::string &path() const { return Path; }
  uint64_t epoch() const { return Epoch; }

  /// Test hook: rewrites \p Path's lease block to claim ownership by
  /// \p Pid (epoch untouched), simulating a live concurrent owner.
  static bool forgeLease(const std::string &Path, int64_t Pid,
                         std::string *Error);

private:
  CommitJournal() = default;

  void appendFrame(const JournalFrame &F);
  void maybeSync(bool Force);

  std::string Path;
  int Fd = -1;
  JournalIdentity Id;
  Options Opts;
  uint64_t Epoch = 0;
  uint64_t LeaseOff = 0; ///< file offset of the rewritable lease block

  std::vector<JournalFrame> Frames;              // valid prefix at open
  std::vector<RecoveredInvocation> Invocations;  // grouped view of Frames
  size_t NextRecovered = 0;                      // takeRecovered cursor
  uint64_t CurInvocation = 0;
  uint64_t NextInvocation = 0;
  bool InvocationOpen = false;

  // Durability bookkeeping. UnsyncedFrames counts frames not yet durable;
  // InitiatedFrames marks how many of those already had writeback started
  // (sync_file_range) so the frame-count trigger never stalls the commit
  // lane and the eventual blocking fdatasync finds mostly-clean pages.
  uint64_t UnsyncedFrames = 0;
  uint64_t InitiatedFrames = 0;
  uint64_t OldestUnsyncedNs = 0;

  // Stats since last drainStats.
  uint64_t PendingBytes = 0;
  uint64_t PendingFsyncs = 0;
  MetricsRegistry PendingMetrics; // JournalFsyncNs samples
};

/// The process-global journal named by ALTER_JOURNAL (with
/// ALTER_JOURNAL_SYNC selecting the durability policy), lazily opened on
/// first use with \p Id and shared by subsequent runs of the same
/// workload. Returns nullptr when the env var is unset or the opened
/// journal's workload differs from \p Id's. A malformed policy value or a
/// refused open is a fatal config error: silently dropping requested
/// durability would be a lie.
CommitJournal *maybeEnvJournal(const JournalIdentity &Id);

/// Parses "off" / "percommit" / "batched" / "batched:N:MS" into \p Opts.
/// Returns false on malformed input.
bool parseDurabilitySpec(const std::string &Text,
                         CommitJournal::Options &Opts);

} // namespace alter

#endif // ALTER_RUNTIME_COMMITJOURNAL_H
