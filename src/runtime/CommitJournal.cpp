//===- runtime/CommitJournal.cpp - Crash-consistent commit journal --------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// On-disk layout (all fixed-width fields little-endian uint64_t):
//
//   [0]   file magic "ALTJRNL1"
//   [8]   header payload length
//   [16]  header payload CRC32 (wireCrc32, zero-extended)
//   [24]  header payload: varint format version, then the identity —
//         workload, loop, seed, chunk factor (zigzag), schedule
//   [L]   lease block (rewritten in place, never appended):
//         owner pid, epoch, CRC32 over the previous 16 bytes
//   [L+24] frames, each:  frame magic "ALTJFRM1" | payload length |
//          payload CRC32 | payload
//
// Frame payloads are varint-encoded (support/Varint.h), mirroring the
// ALTER5 wire message bodies: kind byte, invocation ordinal, then
// kind-specific fields (a Commit frame's chunk, first iteration and
// length). The CRC covers the whole payload, so a torn or bit-flipped tail
// frame is detected and discarded on open — never decoded into a
// replayable record.
//
//===----------------------------------------------------------------------===//

#include "runtime/CommitJournal.h"

#include "runtime/ShutdownSupervisor.h"
#include "runtime/TxnWire.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/Io.h"
#include "support/Timer.h"
#include "support/Varint.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace alter;

namespace {

constexpr uint64_t JournalFileMagic = 0x314c4e524a544c41ULL;  // "ALTJRNL1"
constexpr uint64_t JournalFrameMagic = 0x314d52464a544c41ULL; // "ALTJFRM1"
/// Changes with every frame layout change: open() refuses a journal of
/// another version rather than misread its frames.
constexpr uint64_t FormatVersion = 2;
constexpr size_t LeaseBytes = 3 * sizeof(uint64_t);
constexpr size_t FrameHeaderBytes = 3 * sizeof(uint64_t);
/// Payload cap, aligned with the wire layer's corruption bound: a frame
/// claiming more than this is a torn/corrupt length field, not real data.
constexpr uint64_t MaxFramePayload = 1ULL << 26;

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

uint64_t getU64(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

void appendString(std::vector<uint8_t> &Out, const std::string &S) {
  appendVarint(Out, S.size());
  Out.insert(Out.end(), S.begin(), S.end());
}

bool readString(const uint8_t *&P, const uint8_t *End, std::string &S) {
  uint64_t Len = 0;
  if (!readVarint(P, End, Len) || Len > static_cast<uint64_t>(End - P))
    return false;
  S.assign(reinterpret_cast<const char *>(P), Len);
  P += Len;
  return true;
}

bool preadFull(int Fd, void *Data, size_t Size, uint64_t Off) {
  uint8_t *P = static_cast<uint8_t *>(Data);
  while (Size != 0) {
    const ssize_t N = ::pread(Fd, P, Size, static_cast<off_t>(Off));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false;
    P += static_cast<size_t>(N);
    Size -= static_cast<size_t>(N);
    Off += static_cast<uint64_t>(N);
  }
  return true;
}

bool pwriteFull(int Fd, const void *Data, size_t Size, uint64_t Off) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  while (Size != 0) {
    const ssize_t N = ::pwrite(Fd, P, Size, static_cast<off_t>(Off));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += static_cast<size_t>(N);
    Size -= static_cast<size_t>(N);
    Off += static_cast<uint64_t>(N);
  }
  return true;
}

std::vector<uint8_t> encodeHeaderPayload(const JournalIdentity &Id) {
  std::vector<uint8_t> B;
  appendVarint(B, FormatVersion);
  appendString(B, Id.Workload);
  appendString(B, Id.Loop);
  appendVarint(B, Id.Seed);
  appendVarint(B, zigzagEncode(Id.ChunkFactor));
  appendString(B, Id.Schedule);
  return B;
}

/// Decodes a header payload into \p Version and \p Id. Returns false when
/// it is malformed.
bool decodeHeaderPayload(const uint8_t *P, size_t Size, uint64_t &Version,
                         JournalIdentity &Id) {
  const uint8_t *End = P + Size;
  if (!readVarint(P, End, Version))
    return false;
  uint64_t V = 0;
  if (!readString(P, End, Id.Workload) || !readString(P, End, Id.Loop) ||
      !readVarint(P, End, Id.Seed) || !readVarint(P, End, V))
    return false;
  Id.ChunkFactor = zigzagDecode(V);
  return readString(P, End, Id.Schedule);
}

std::vector<uint8_t> encodeLease(uint64_t Pid, uint64_t Epoch) {
  std::vector<uint8_t> B;
  putU64(B, Pid);
  putU64(B, Epoch);
  putU64(B, wireCrc32(B.data(), B.size()));
  return B;
}

std::vector<uint8_t> encodeFramePayload(const JournalFrame &F) {
  std::vector<uint8_t> P;
  P.push_back(static_cast<uint8_t>(F.FrameKind));
  appendVarint(P, F.Invocation);
  switch (F.FrameKind) {
  case JournalFrame::Kind::LoopBegin:
    appendString(P, F.LoopName);
    appendVarint(P, static_cast<uint64_t>(F.NumIterations));
    appendVarint(P, zigzagEncode(F.ChunkFactor));
    P.push_back(F.Schedule);
    break;
  case JournalFrame::Kind::Commit:
    appendVarint(P, zigzagEncode(F.Chunk));
    appendVarint(P, zigzagEncode(F.FirstIter));
    appendVarint(P, static_cast<uint64_t>(F.LastIter - F.FirstIter));
    break;
  case JournalFrame::Kind::LoopEnd:
    break;
  }
  return P;
}

bool decodeFramePayload(const uint8_t *P, size_t Size, JournalFrame &F) {
  const uint8_t *End = P + Size;
  if (P == End)
    return false;
  const uint8_t KindByte = *P++;
  if (KindByte < static_cast<uint8_t>(JournalFrame::Kind::LoopBegin) ||
      KindByte > static_cast<uint8_t>(JournalFrame::Kind::LoopEnd))
    return false;
  F.FrameKind = static_cast<JournalFrame::Kind>(KindByte);
  if (!readVarint(P, End, F.Invocation))
    return false;
  uint64_t V = 0;
  switch (F.FrameKind) {
  case JournalFrame::Kind::LoopBegin:
    if (!readString(P, End, F.LoopName) || !readVarint(P, End, V))
      return false;
    F.NumIterations = static_cast<int64_t>(V);
    if (!readVarint(P, End, V))
      return false;
    F.ChunkFactor = zigzagDecode(V);
    if (P == End)
      return false;
    F.Schedule = *P++;
    break;
  case JournalFrame::Kind::Commit: {
    if (!readVarint(P, End, V))
      return false;
    F.Chunk = zigzagDecode(V);
    if (!readVarint(P, End, V))
      return false;
    F.FirstIter = zigzagDecode(V);
    uint64_t Len = 0;
    if (!readVarint(P, End, Len) ||
        Len > static_cast<uint64_t>(INT64_MAX) - static_cast<uint64_t>(F.FirstIter))
      return false;
    F.LastIter = F.FirstIter + static_cast<int64_t>(Len);
    break;
  }
  case JournalFrame::Kind::LoopEnd:
    break;
  }
  return P == End; // trailing garbage is structural corruption
}

/// Groups a valid frame prefix into per-invocation recovery records.
std::vector<RecoveredInvocation>
groupInvocations(const std::vector<JournalFrame> &Frames) {
  std::vector<RecoveredInvocation> Out;
  for (const JournalFrame &F : Frames) {
    switch (F.FrameKind) {
    case JournalFrame::Kind::LoopBegin: {
      RecoveredInvocation R;
      R.Invocation = F.Invocation;
      R.LoopName = F.LoopName;
      R.NumIterations = F.NumIterations;
      R.ChunkFactor = F.ChunkFactor;
      R.Schedule = F.Schedule;
      Out.push_back(std::move(R));
      break;
    }
    case JournalFrame::Kind::Commit:
      // The writer never emits a commit outside its LoopBegin/LoopEnd
      // bracket; anything else would be cross-frame corruption the CRC
      // cannot see, so drop it rather than replay it.
      if (!Out.empty() && Out.back().Invocation == F.Invocation &&
          !Out.back().Finished)
        Out.back().Commits.push_back(F);
      break;
    case JournalFrame::Kind::LoopEnd:
      if (!Out.empty() && Out.back().Invocation == F.Invocation)
        Out.back().Finished = true;
      break;
    }
  }
  return Out;
}

/// Registry of open journals for the shutdown flush hook (parent-side,
/// single-threaded like the executors themselves).
std::vector<CommitJournal *> &openJournals() {
  static std::vector<CommitJournal *> V;
  return V;
}

void flushOpenJournals() {
  for (CommitJournal *J : openJournals())
    J->flush();
}

} // namespace

const char *alter::durabilityPolicyName(DurabilityPolicy Policy) {
  switch (Policy) {
  case DurabilityPolicy::Off:
    return "off";
  case DurabilityPolicy::PerCommit:
    return "percommit";
  case DurabilityPolicy::Batched:
    return "batched";
  }
  ALTER_UNREACHABLE("covered switch");
}

std::unique_ptr<CommitJournal>
CommitJournal::open(const std::string &Path, const JournalIdentity &Id,
                    const Options &Opts, std::string *Error) {
  std::unique_ptr<CommitJournal> J(new CommitJournal());
  const auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    // Close before the destructor runs: its lease release would write into
    // a file this open refused — another run's, or a live owner's.
    if (J->Fd >= 0)
      ::close(J->Fd);
    J->Fd = -1;
    return nullptr;
  };
  J->Path = Path;
  J->Id = Id;
  J->Opts = Opts;
  J->Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (J->Fd < 0)
    return Fail("cannot open " + Path + ": " + std::strerror(errno));

  const std::vector<uint8_t> Header = encodeHeaderPayload(Id);
  J->LeaseOff = 3 * sizeof(uint64_t) + Header.size();
  const uint64_t FramesOff = J->LeaseOff + LeaseBytes;

  const off_t SizeOff = ::lseek(J->Fd, 0, SEEK_END);
  const uint64_t Size = SizeOff < 0 ? 0 : static_cast<uint64_t>(SizeOff);

  const auto initFresh = [&]() -> bool {
    if (::ftruncate(J->Fd, 0) != 0)
      return false;
    std::vector<uint8_t> B;
    putU64(B, JournalFileMagic);
    putU64(B, Header.size());
    putU64(B, wireCrc32(Header.data(), Header.size()));
    B.insert(B.end(), Header.begin(), Header.end());
    J->Epoch = 1;
    const std::vector<uint8_t> Lease =
        encodeLease(static_cast<uint64_t>(::getpid()), J->Epoch);
    B.insert(B.end(), Lease.begin(), Lease.end());
    if (!pwriteFull(J->Fd, B.data(), B.size(), 0))
      return false;
    (void)::lseek(J->Fd, 0, SEEK_END);
    return fdatasyncRetry(J->Fd);
  };

  if (Size < sizeof(uint64_t)) {
    // Empty or too short to even carry a magic: fresh file (or an open
    // torn so early nothing was claimed).
    if (!initFresh())
      return Fail("cannot initialize " + Path + ": " + std::strerror(errno));
  } else {
    std::vector<uint8_t> Bytes(Size);
    if (!preadFull(J->Fd, Bytes.data(), Bytes.size(), 0))
      return Fail("cannot read " + Path + ": " + std::strerror(errno));
    if (getU64(Bytes.data()) != JournalFileMagic)
      return Fail(Path + " is not a commit journal (bad magic)");
    // Validate the EXISTING header on its own terms (its recorded length),
    // not against the new identity's encoding: a different identity must
    // be a refused open, never mistaken for a torn header and wiped.
    bool HeaderOk = Size >= 3 * sizeof(uint64_t);
    JournalIdentity Existing;
    if (HeaderOk) {
      const uint64_t HLen = getU64(Bytes.data() + 8);
      const uint64_t HCrc = getU64(Bytes.data() + 16);
      const bool Intact = HLen <= MaxFramePayload &&
                          Size >= 3 * sizeof(uint64_t) + HLen + LeaseBytes &&
                          wireCrc32(Bytes.data() + 24, HLen) == HCrc;
      uint64_t Version = 0;
      HeaderOk = Intact && decodeHeaderPayload(Bytes.data() + 24, HLen,
                                               Version, Existing);
      // An intact header of another format version is a different file
      // layout: refuse it rather than misread or wipe its frames.
      if (Intact && Version != FormatVersion)
        return Fail(Path + " is a version " + std::to_string(Version) +
                    " commit journal; this build reads version " +
                    std::to_string(FormatVersion));
      if (HeaderOk &&
          (Existing.Workload != Id.Workload || Existing.Loop != Id.Loop ||
           Existing.Seed != Id.Seed ||
           Existing.ChunkFactor != Id.ChunkFactor ||
           Existing.Schedule != Id.Schedule))
        return Fail(Path + " belongs to a different run (workload=" +
                    Existing.Workload + " seed=" +
                    std::to_string(Existing.Seed) +
                    "); refusing to mix journals");
      // A same-identity header has the same deterministic encoding, so
      // from here on HLen == Header.size() and the precomputed LeaseOff /
      // FramesOff are valid.
    }
    if (!HeaderOk) {
      // Magic landed but the header/lease never completed: an open() died
      // mid-creation. No frame can exist, so re-initialize.
      if (!initFresh())
        return Fail("cannot re-initialize " + Path + ": " +
                    std::strerror(errno));
    } else {
      // Lease check: refuse a journal whose recorded owner still runs.
      const uint8_t *L = Bytes.data() + J->LeaseOff;
      const uint64_t LeasePid = getU64(L);
      const uint64_t LeaseEpoch = getU64(L + 8);
      const bool LeaseOk = wireCrc32(L, 16) == getU64(L + 16);
      const pid_t Self = ::getpid();
      if (LeaseOk && LeasePid != 0 &&
          LeasePid != static_cast<uint64_t>(Self)) {
        const int R = ::kill(static_cast<pid_t>(LeasePid), 0);
        if (R == 0 || errno == EPERM)
          return Fail(Path + " is live: owned by running pid " +
                      std::to_string(LeasePid) +
                      " (epoch " + std::to_string(LeaseEpoch) + ")");
      }
      // Take over: bump the epoch so stale-owner artifacts (nothing today,
      // but the lease protocol reserves it) are distinguishable.
      J->Epoch = (LeaseOk ? LeaseEpoch : 0) + 1;
      const std::vector<uint8_t> Lease =
          encodeLease(static_cast<uint64_t>(Self), J->Epoch);
      if (!pwriteFull(J->Fd, Lease.data(), Lease.size(), J->LeaseOff))
        return Fail("cannot take lease on " + Path + ": " +
                    std::strerror(errno));
      if (!fdatasyncRetry(J->Fd))
        return Fail("cannot sync lease on " + Path + ": " +
                    std::strerror(errno));

      // Frame scan: accept the longest valid prefix, truncate the rest.
      uint64_t Off = FramesOff;
      while (Off + FrameHeaderBytes <= Size) {
        const uint8_t *H = Bytes.data() + Off;
        if (getU64(H) != JournalFrameMagic)
          break;
        const uint64_t PLen = getU64(H + 8);
        if (PLen > MaxFramePayload ||
            Off + FrameHeaderBytes + PLen > Size)
          break;
        const uint8_t *P = H + FrameHeaderBytes;
        if (wireCrc32(P, PLen) != getU64(H + 16))
          break;
        JournalFrame F;
        if (!decodeFramePayload(P, PLen, F))
          break;
        J->Frames.push_back(std::move(F));
        Off += FrameHeaderBytes + PLen;
      }
      if (Off < Size) {
        // Torn tail: whatever lies past the last valid frame was never
        // acknowledged as committed-and-durable in its entirety. Discard
        // it; the iterations it covered simply re-execute as fresh work.
        if (::ftruncate(J->Fd, static_cast<off_t>(Off)) != 0)
          return Fail("cannot truncate torn tail of " + Path + ": " +
                      std::strerror(errno));
      }
      (void)::lseek(J->Fd, 0, SEEK_END);
      J->Invocations = groupInvocations(J->Frames);
      J->NextInvocation =
          J->Invocations.empty() ? 0 : J->Invocations.back().Invocation + 1;
    }
  }

  setShutdownFlushHook(&flushOpenJournals);
  openJournals().push_back(J.get());
  return J;
}

CommitJournal::~CommitJournal() {
  auto &Reg = openJournals();
  Reg.erase(std::remove(Reg.begin(), Reg.end(), this), Reg.end());
  if (Fd < 0)
    return;
  maybeSync(/*Force=*/true);
  // Clean close releases the lease (pid 0): the next opener need not probe
  // a recycled pid. A SIGKILL'd parent never gets here — its stale lease
  // is detected via kill(pid, 0) on reopen.
  const std::vector<uint8_t> Lease = encodeLease(0, Epoch);
  (void)pwriteFull(Fd, Lease.data(), Lease.size(), LeaseOff);
  (void)fdatasyncRetry(Fd);
  ::close(Fd);
  Fd = -1;
}

const RecoveredInvocation *CommitJournal::takeRecovered() {
  if (NextRecovered >= Invocations.size())
    return nullptr;
  const RecoveredInvocation *R = &Invocations[NextRecovered++];
  CurInvocation = R->Invocation;
  // An unfinished invocation is resumed in place: its remaining commits
  // append under the same ordinal, with no second LoopBegin.
  InvocationOpen = !R->Finished;
  return R;
}

void CommitJournal::beginInvocation(const std::string &LoopName,
                                    int64_t NumIterations,
                                    int64_t ChunkFactor, uint8_t Schedule) {
  CurInvocation = NextInvocation++;
  InvocationOpen = true;
  JournalFrame F;
  F.FrameKind = JournalFrame::Kind::LoopBegin;
  F.Invocation = CurInvocation;
  F.LoopName = LoopName;
  F.NumIterations = NumIterations;
  F.ChunkFactor = ChunkFactor;
  F.Schedule = Schedule;
  appendFrame(F);
}

void CommitJournal::appendCommit(int64_t Chunk, int64_t First,
                                 int64_t Last) {
  if (!InvocationOpen)
    return;
  JournalFrame F;
  F.FrameKind = JournalFrame::Kind::Commit;
  F.Invocation = CurInvocation;
  F.Chunk = Chunk;
  F.FirstIter = First;
  F.LastIter = Last;
  appendFrame(F);
}

void CommitJournal::endInvocation() {
  if (!InvocationOpen)
    return;
  JournalFrame F;
  F.FrameKind = JournalFrame::Kind::LoopEnd;
  F.Invocation = CurInvocation;
  appendFrame(F);
  InvocationOpen = false;
  // No forced sync here: PerCommit already synced in appendFrame, and
  // under Batched the time window bounds the LoopEnd's exposure — a crash
  // before it lands just re-runs the invocation tail. Workloads that
  // invoke many short loops (Floyd-Warshall runs one per outer iteration)
  // would otherwise pay one blocking device flush per invocation.
}

void CommitJournal::flush() { maybeSync(/*Force=*/true); }

void CommitJournal::appendFrame(const JournalFrame &F) {
  if (Fd < 0)
    return;
  const std::vector<uint8_t> Payload = encodeFramePayload(F);
  std::vector<uint8_t> B;
  B.reserve(FrameHeaderBytes + Payload.size());
  putU64(B, JournalFrameMagic);
  putU64(B, Payload.size());
  putU64(B, wireCrc32(Payload.data(), Payload.size()));
  B.insert(B.end(), Payload.begin(), Payload.end());
  if (!writeFull(Fd, B.data(), B.size()))
    fatalError("commit journal append failed (" + Path +
               "): " + std::strerror(errno));
  PendingBytes += B.size();
  if (UnsyncedFrames++ == 0)
    OldestUnsyncedNs = nowNs();
  maybeSync(/*Force=*/false);
}

void CommitJournal::maybeSync(bool Force) {
  if (Fd < 0 || UnsyncedFrames == 0)
    return;
  bool Due = Force;
  switch (Opts.Policy) {
  case DurabilityPolicy::Off:
    break; // only explicit flush() syncs
  case DurabilityPolicy::PerCommit:
    Due = true;
    break;
  case DurabilityPolicy::Batched:
    Due = Due || nowNs() - OldestUnsyncedNs >= Opts.BatchNs;
    // The frame-count trigger never blocks the commit lane: it only
    // *initiates* writeback, so the disk drains concurrently with the
    // children and the eventual blocking fdatasync (time bound, Force,
    // close) finds mostly-clean pages. Durability is bounded by BatchNs
    // alone; an unflushed initiated frame is still just torn tail.
    if (!Due && UnsyncedFrames - InitiatedFrames >= Opts.BatchFrames) {
      faultParentKillPoint();
      (void)::sync_file_range(Fd, 0, 0, SYNC_FILE_RANGE_WRITE);
      InitiatedFrames = UnsyncedFrames;
    }
    break;
  }
  if (!Due)
    return;
  // Kill point: frames are in the page cache but not yet durable — the
  // crash-restart soak must prove this window only ever loses the tail.
  faultParentKillPoint();
  const uint64_t T0 = nowNs();
  if (!fdatasyncRetry(Fd))
    fatalError("commit journal fdatasync failed (" + Path +
               "): " + std::strerror(errno));
  PendingMetrics.record(HistogramId::JournalFsyncNs, nowNs() - T0);
  ++PendingFsyncs;
  UnsyncedFrames = 0;
  InitiatedFrames = 0;
}

void CommitJournal::drainStats(RunStats &S, MetricsRegistry *M) {
  S.JournalBytes += PendingBytes;
  S.JournalFsyncs += PendingFsyncs;
  if (M)
    M->merge(PendingMetrics);
  PendingBytes = 0;
  PendingFsyncs = 0;
  PendingMetrics.reset();
}

bool CommitJournal::forgeLease(const std::string &Path, int64_t Pid,
                               std::string *Error) {
  const auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  const int Fd = ::open(Path.c_str(), O_RDWR | O_CLOEXEC);
  if (Fd < 0)
    return Fail("cannot open " + Path + ": " + std::strerror(errno));
  uint8_t Head[24];
  if (!preadFull(Fd, Head, sizeof(Head), 0) ||
      getU64(Head) != JournalFileMagic) {
    ::close(Fd);
    return Fail(Path + " is not a commit journal");
  }
  const uint64_t HLen = getU64(Head + 8);
  uint8_t LeaseBuf[LeaseBytes];
  const uint64_t LeaseOff = 24 + HLen;
  uint64_t Epoch = 1;
  if (preadFull(Fd, LeaseBuf, sizeof(LeaseBuf), LeaseOff))
    Epoch = getU64(LeaseBuf + 8);
  const std::vector<uint8_t> Lease =
      encodeLease(static_cast<uint64_t>(Pid), Epoch);
  const bool Ok = pwriteFull(Fd, Lease.data(), Lease.size(), LeaseOff) &&
                  fdatasyncRetry(Fd);
  ::close(Fd);
  if (!Ok)
    return Fail("cannot rewrite lease on " + Path);
  return true;
}

//===----------------------------------------------------------------------===
// ALTER_JOURNAL / ALTER_JOURNAL_SYNC environment surface
//===----------------------------------------------------------------------===

bool alter::parseDurabilitySpec(const std::string &Text,
                                CommitJournal::Options &Opts) {
  if (Text == "off") {
    Opts.Policy = DurabilityPolicy::Off;
    return true;
  }
  if (Text == "percommit") {
    Opts.Policy = DurabilityPolicy::PerCommit;
    return true;
  }
  if (Text == "batched") {
    Opts.Policy = DurabilityPolicy::Batched;
    return true;
  }
  // batched:FRAMES:MS
  const std::string Prefix = "batched:";
  if (Text.compare(0, Prefix.size(), Prefix) != 0)
    return false;
  const size_t Colon = Text.find(':', Prefix.size());
  if (Colon == std::string::npos)
    return false;
  const std::string FramesText = Text.substr(Prefix.size(), Colon - Prefix.size());
  const std::string MsText = Text.substr(Colon + 1);
  if (FramesText.empty() || MsText.empty())
    return false;
  uint64_t Frames = 0, Ms = 0;
  for (char C : FramesText) {
    if (C < '0' || C > '9')
      return false;
    Frames = Frames * 10 + static_cast<uint64_t>(C - '0');
  }
  for (char C : MsText) {
    if (C < '0' || C > '9')
      return false;
    Ms = Ms * 10 + static_cast<uint64_t>(C - '0');
  }
  if (Frames == 0)
    return false;
  Opts.Policy = DurabilityPolicy::Batched;
  Opts.BatchFrames = Frames;
  Opts.BatchNs = Ms * 1'000'000;
  return true;
}

CommitJournal *alter::maybeEnvJournal(const JournalIdentity &Id) {
  const char *Path = std::getenv("ALTER_JOURNAL");
  if (!Path || !*Path)
    return nullptr;
  static std::unique_ptr<CommitJournal> Global;
  static std::string OpenedWorkload;
  static bool Attempted = false;
  if (!Attempted) {
    Attempted = true;
    CommitJournal::Options Opts;
    if (const char *Sync = std::getenv("ALTER_JOURNAL_SYNC")) {
      if (!parseDurabilitySpec(Sync, Opts))
        fatalError(std::string("malformed ALTER_JOURNAL_SYNC \"") + Sync +
                   "\": expected off | percommit | batched[:frames:ms]");
    }
    std::string Error;
    Global = CommitJournal::open(Path, Id, Opts, &Error);
    if (!Global)
      fatalError("ALTER_JOURNAL refused: " + Error);
    OpenedWorkload = Id.Workload;
  }
  if (!Global || OpenedWorkload != Id.Workload)
    return nullptr;
  return Global.get();
}
