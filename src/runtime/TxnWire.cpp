//===- runtime/TxnWire.cpp ------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/TxnWire.h"

#include "support/Error.h"
#include "support/Io.h"
#include "support/Timer.h"
#include "support/Varint.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <unistd.h>

using namespace alter;

namespace {

/// Growable little-endian byte sink for the child->parent commit message.
class ByteWriter {
public:
  void u64(uint64_t V) {
    const uint8_t *P = reinterpret_cast<const uint8_t *>(&V);
    Bytes.insert(Bytes.end(), P, P + sizeof(V));
  }

  void raw(const void *Data, size_t Size) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    Bytes.insert(Bytes.end(), P, P + Size);
  }

  std::vector<uint8_t> &bytes() { return Bytes; }

private:
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked reader for the same message. Corruption is a recoverable
/// condition: any out-of-bounds access latches the failed() flag and reads
/// return zeros, so decode loops terminate and the caller rejects the
/// message as a whole.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  uint64_t u64() {
    uint64_t V = 0;
    if (!need(sizeof(V)))
      return 0;
    std::memcpy(&V, Data + Pos, sizeof(V));
    Pos += sizeof(V);
    return V;
  }

  uint64_t varint() {
    const uint8_t *P = Data + Pos;
    uint64_t V;
    if (!readVarint(P, Data + Size, V)) {
      Failed = true;
      return 0;
    }
    Pos = static_cast<size_t>(P - Data);
    return V;
  }

  const uint8_t *raw(size_t Bytes) {
    if (!need(Bytes))
      return Data + Size; // zero bytes remain past this pointer
    const uint8_t *P = Data + Pos;
    Pos += Bytes;
    return P;
  }

  size_t position() const { return Pos; }
  size_t remaining() const { return Size - Pos; }
  bool exhausted() const { return Pos == Size; }
  bool failed() const { return Failed; }

private:
  bool need(size_t Bytes) {
    // Guard with subtraction: `Pos + Bytes > Size` can wrap to a small
    // value when a corrupt length field makes Bytes enormous.
    if (Bytes > Size - Pos) {
      Failed = true;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

constexpr size_t FrameHeaderBytes = 3 * sizeof(uint64_t);

/// Fixed wire size of one TRACE-section event: 6 u64 slots (StartNs, DurNs,
/// Chunk, Arg0, Arg1, Worker | Kind << 32).
constexpr size_t TraceEventWireBytes = 6 * sizeof(uint64_t);

/// Decoded word-key cap: each message describes one chunk's accesses, so a
/// count beyond this is corruption, not a big loop. It bounds the memory a
/// corrupt-but-plausible run table can make the parent allocate.
constexpr uint64_t MaxWireSetWords = 1ULL << 26;

void writeAllToPipe(int Fd, const void *Data, size_t Size) {
  if (!writeFull(Fd, Data, Size))
    _exit(11); // cannot report further; parent sees an abnormal exit
}

} // namespace

void alter::applyFrameFault(std::vector<uint8_t> &Frame,
                            const ArmedFault &Fault) {
  if (!Fault.Armed)
    return;
  switch (Fault.Kind) {
  case FaultKind::PipeTruncate:
    faultTruncateWire(Frame, Fault.Seed, Fault.Chunk);
    break;
  case FaultKind::BitFlip:
    faultBitFlipWire(Frame, Fault.Seed, Fault.Chunk);
    break;
  case FaultKind::Stall: {
    timespec Ts;
    Ts.tv_sec = static_cast<time_t>(Fault.StallNs / 1000000000ULL);
    Ts.tv_nsec = static_cast<long>(Fault.StallNs % 1000000000ULL);
    while (::nanosleep(&Ts, &Ts) != 0 && errno == EINTR)
      ;
    break;
  }
  default:
    break; // parent-side kinds are consumed before dispatch
  }
}

uint32_t alter::wireCrc32(const uint8_t *Data, size_t Size) {
  static uint32_t Table[256];
  static bool Initialized = false;
  if (!Initialized) {
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      Table[I] = C;
    }
    Initialized = true;
  }
  uint32_t Crc = 0xffffffffu;
  for (size_t I = 0; I != Size; ++I)
    Crc = Table[(Crc ^ Data[I]) & 0xff] ^ (Crc >> 8);
  return Crc ^ 0xffffffffu;
}

std::vector<uint8_t> alter::readAllFromPipe(int Fd) {
  std::vector<uint8_t> Out;
  uint8_t Buf[1 << 16];
  for (;;) {
    const ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Out; // hard error == truncation; the frame check rejects it
    }
    if (N == 0)
      return Out;
    Out.insert(Out.end(), Buf, Buf + N);
  }
}

size_t alter::rawAccessSetBytes(const AccessSet &Set) {
  return sizeof(uint64_t) + Set.sizeWords() * sizeof(uintptr_t);
}

void alter::serializeAccessSet(std::vector<uint8_t> &Out,
                               const AccessSet &Set) {
  std::vector<uintptr_t> Sorted(Set.words());
  std::sort(Sorted.begin(), Sorted.end());
  appendVarint(Out, Sorted.size());

  // Collapse sorted keys into (gap, length) runs. Gap is measured from the
  // previous run's end, so contiguous ranges cost a few bytes per run while
  // scattered keys degrade gracefully to one varint delta each.
  size_t NumRuns = 0;
  for (size_t J = 0; J != Sorted.size();) {
    size_t K = J + 1;
    while (K != Sorted.size() && Sorted[K] == Sorted[K - 1] + 1)
      ++K;
    ++NumRuns;
    J = K;
  }
  appendVarint(Out, NumRuns);
  uint64_t PrevEnd = 0;
  size_t I = 0;
  while (I != Sorted.size()) {
    size_t K = I + 1;
    while (K != Sorted.size() && Sorted[K] == Sorted[K - 1] + 1)
      ++K;
    const uint64_t Base = static_cast<uint64_t>(Sorted[I]);
    const uint64_t Len = static_cast<uint64_t>(K - I);
    appendVarint(Out, Base - PrevEnd);
    appendVarint(Out, Len - 1);
    PrevEnd = Base + Len;
    I = K;
  }
}

bool alter::deserializeAccessSet(const uint8_t *Data, size_t Size,
                                 AccessSet &Set, size_t &Consumed) {
  ByteReader R(Data, Size);
  const uint64_t Count = R.varint();
  const uint64_t NumRuns = R.varint();
  if (R.failed())
    return false;
  // Bound allocation before decoding: word count against the sanity cap,
  // run count against the physical encoding size (each run is >= 2 bytes).
  if (Count > MaxWireSetWords || NumRuns > Size / 2 + 1 || NumRuns > Count)
    return false;
  uint64_t Decoded = 0;
  uint64_t PrevEnd = 0;
  for (uint64_t Run = 0; Run != NumRuns; ++Run) {
    const uint64_t Gap = R.varint();
    const uint64_t Len = R.varint() + 1;
    if (R.failed())
      return false;
    const uint64_t Base = PrevEnd + Gap;
    if (Decoded + Len < Len || Decoded + Len > Count)
      return false;
    for (uint64_t K = 0; K != Len; ++K) {
      const uintptr_t Key = static_cast<uintptr_t>(Base + K);
      Set.insertWords(&Key, 1);
    }
    Decoded += Len;
    PrevEnd = Base + Len;
  }
  if (Decoded != Count)
    return false;
  Consumed = R.position();
  return true;
}

namespace {

/// Child-side core shared by the pipe and ring transports: executes the
/// chunk transactionally, serializes the framed message, and applies any
/// armed wire-corruption or stall fault.
/// The crash/kill faults raise inside, so this returns only on the report
/// path. The assembled (possibly corrupted) message is ready to ship
/// verbatim over either transport.
std::vector<uint8_t> buildChildCommitMessage(const LoopSpec &Spec,
                                             const ExecutorConfig &Config,
                                             unsigned Worker, int64_t Chunk,
                                             int64_t FirstIter,
                                             int64_t LastIter,
                                             const ArmedFault &Fault,
                                             MetricsRegistry *Metrics) {
  if (Fault.Armed && Fault.Kind == FaultKind::ChildCrash)
    ::raise(SIGSEGV); // the injected "buggy chunk" dies before any work

  TraceBuffer Trace(Config.Trace);
  if (Trace.events())
    Trace.record(TraceEventKind::ChunkStart, Worker, Chunk, traceNowNs(), 0,
                 static_cast<uint64_t>(FirstIter),
                 static_cast<uint64_t>(LastIter));

  TxnContext Ctx(ContextMode::Transactional, &Config.Params, &Spec,
                 Config.Allocator, Worker, Config.Limits);
  Ctx.beginTxn();
  const uint64_t TraceT0 = Trace.events() ? traceNowNs() : 0;
  const uint64_t T0 = nowNs();
  for (int64_t I = FirstIter; I != LastIter; ++I)
    Spec.Body(Ctx, I);
  // The serialized log must carry the new values. No restore is needed:
  // this address space is either discarded on exit, or — when the parent
  // redispatches this resident child — kept only after the chunk commits,
  // at which point the written-through values ARE committed state.
  Ctx.captureRedo();
  const uint64_t WorkNs = nowNs() - T0;
  if (Trace.events())
    Trace.record(TraceEventKind::ChunkExec, Worker, Chunk, TraceT0, WorkNs,
                 Ctx.readSet().sizeWords(), Ctx.writeSet().sizeWords());
  if (Metrics)
    Metrics->record(HistogramId::ChunkExecNs, WorkNs);

  if (Fault.Armed && Fault.Kind == FaultKind::ChildKill)
    ::raise(SIGKILL); // the injected kill lands after the work, pre-report

  std::vector<uint8_t> Message =
      encodeCommitFrame(Ctx, Config, Worker, Chunk, WorkNs, Trace, Metrics);
  applyFrameFault(Message, Fault);
  return Message;
}

} // namespace

std::vector<uint8_t> alter::encodeCommitFrame(TxnContext &Ctx,
                                              const ExecutorConfig &Config,
                                              unsigned Worker, int64_t Chunk,
                                              uint64_t WorkNs,
                                              TraceBuffer &Trace,
                                              MetricsRegistry *Metrics) {
  const auto &Slots = Ctx.reductionSlots();

  // Serialize the body (sets, log, slots) separately from the fixed header:
  // the trace events recorded below need the body size, and the RawBytes
  // header field needs the final TRACE-section size.
  const uint64_t SerT0 = Metrics ? nowNs() : 0;
  ByteWriter Body;
  serializeAccessSet(Body.bytes(), Ctx.readSet());
  serializeAccessSet(Body.bytes(), Ctx.writeSet());
  uint64_t LogBytes = 0;
  {
    std::vector<uint8_t> LogBuf;
    Ctx.writeLog().serializeCompact(LogBuf);
    LogBytes = LogBuf.size();
    Body.u64(LogBuf.size());
    Body.raw(LogBuf.data(), LogBuf.size());
  }
  Body.u64(Slots.size());
  for (const TxnContext::RedSlotState &S : Slots) {
    Body.u64(S.Touched ? 1 : 0);
    uint64_t AccBits;
    std::memcpy(&AccBits, &S.Acc.F, sizeof(AccBits));
    Body.u64(AccBits);
  }

  // The METRICS blob must be serialized before the CommitAttempt event so
  // the event's wire-size prediction is exact, and the recordings must land
  // before the blob so this frame carries its own serialize latency and
  // sizes. WireFrameBytes deliberately excludes the trace/metrics sections
  // — the registry cannot contain its own size.
  std::vector<uint8_t> MetricsBlob;
  if (Metrics) {
    Metrics->record(HistogramId::SerializeNs, nowNs() - SerT0);
    Metrics->record(HistogramId::WriteLogBytes, LogBytes);
    Metrics->gaugeMax(GaugeId::MaxWriteLogBytes, LogBytes);
    Metrics->record(HistogramId::WireFrameBytes,
                    FrameHeaderBytes + 9 * sizeof(uint64_t) +
                        Body.bytes().size());
    Metrics->serialize(MetricsBlob);
    Metrics->reset(); // each frame ships deltas since the previous one
  }
  const uint64_t MetricsSectionBytes = sizeof(uint64_t) + MetricsBlob.size();

  if (Trace.events()) {
    Trace.record(TraceEventKind::Serialize, Worker, Chunk, traceNowNs(), 0,
                 9 * sizeof(uint64_t) + Body.bytes().size());
    // Predicted on-pipe message size, counting this event itself in the
    // TRACE section (it is the last one recorded).
    const uint64_t WireTotal =
        FrameHeaderBytes + 9 * sizeof(uint64_t) + Body.bytes().size() +
        sizeof(uint64_t) + TraceEventWireBytes * (Trace.buffer().size() + 1) +
        MetricsSectionBytes;
    Trace.record(TraceEventKind::CommitAttempt, Worker, Chunk, traceNowNs(),
                 0, WireTotal);
  }
  const uint64_t TraceSectionBytes =
      sizeof(uint64_t) + TraceEventWireBytes * Trace.buffer().size();

  // What the uncompressed format (raw 8-byte word keys, 16-byte write-log
  // entry table) would have shipped for this same message. The TRACE and
  // METRICS sections are already compact, so they contribute their wire
  // size as-is.
  const uint64_t RawBytes =
      9 * sizeof(uint64_t) + rawAccessSetBytes(Ctx.readSet()) +
      rawAccessSetBytes(Ctx.writeSet()) + sizeof(uint64_t) +
      Ctx.writeLog().serializedSize() + sizeof(uint64_t) +
      Slots.size() * 2 * sizeof(uint64_t) + TraceSectionBytes +
      MetricsSectionBytes;

  ByteWriter W;
  W.u64(Ctx.limitExceeded() ? 1 : 0);
  W.u64(WorkNs);
  W.u64(Ctx.instrReadCalls());
  W.u64(Ctx.instrWriteCalls());
  W.u64(Ctx.bytesRead());
  W.u64(Ctx.bytesWritten());
  W.u64(Ctx.memTrafficBytes());
  W.u64(Config.Allocator ? Config.Allocator->bumpOffset(Worker) : 0);
  W.u64(RawBytes);
  W.raw(Body.bytes().data(), Body.bytes().size());
  // TRACE section: count, then fixed-size events. Always present; the
  // count is simply 0 below TraceLevel::Events.
  W.u64(Trace.buffer().size());
  for (const TraceEvent &E : Trace.buffer()) {
    W.u64(E.StartNs);
    W.u64(E.DurNs);
    W.u64(static_cast<uint64_t>(E.Chunk));
    W.u64(E.Arg0);
    W.u64(E.Arg1);
    W.u64(static_cast<uint64_t>(E.Worker) |
          (static_cast<uint64_t>(E.Kind) << 32));
  }

  // METRICS section: blob length (0 with metrics off), then the sparse
  // registry.
  W.u64(MetricsBlob.size());
  W.raw(MetricsBlob.data(), MetricsBlob.size());

  // Frame the payload: magic | payload length | CRC32. The parent verifies
  // all three before trusting a byte of the payload.
  ByteWriter Framed;
  Framed.u64(CommitFrameMagic);
  Framed.u64(W.bytes().size());
  Framed.u64(wireCrc32(W.bytes().data(), W.bytes().size()));
  Framed.raw(W.bytes().data(), W.bytes().size());

  return std::move(Framed.bytes());
}

namespace {

/// Fixed head of a commit record; followed by NumSlots x
/// TxnContext::RedSlotState, u64 LogBytes, and the compact write log.
struct CommitRecordHeader {
  uint64_t Worker;
  uint64_t BumpOffset;
  uint64_t NumSlots;
};

} // namespace

void alter::appendCommitRecord(std::vector<uint8_t> &Out, unsigned Worker,
                               const ChildReport &Rep) {
  const CommitRecordHeader Hdr{Worker, Rep.BumpOffset, Rep.Slots.size()};
  const size_t Start = Out.size();
  Out.resize(Start + sizeof(Hdr) + sizeof(uint64_t) +
             Rep.Slots.size() * sizeof(TxnContext::RedSlotState));
  uint8_t *P = Out.data() + Start;
  std::memcpy(P, &Hdr, sizeof(Hdr));
  P += sizeof(Hdr);
  if (!Rep.Slots.empty())
    std::memcpy(P, Rep.Slots.data(),
                Rep.Slots.size() * sizeof(TxnContext::RedSlotState));
  P += Rep.Slots.size() * sizeof(TxnContext::RedSlotState);
  // The log length is patched in once the log is serialized in place.
  const size_t LenPos = static_cast<size_t>(P - Out.data());
  Rep.Log.serializeCompact(Out);
  const uint64_t LogBytes = Out.size() - LenPos - sizeof(uint64_t);
  std::memcpy(Out.data() + LenPos, &LogBytes, sizeof(LogBytes));
}

bool alter::replayCommitRecords(const LoopSpec &Spec,
                                const ExecutorConfig &Config,
                                const uint8_t *Data, size_t Size) {
  ByteReader R(Data, Size);
  std::vector<TxnContext::RedSlotState> RedSlots(Spec.Reductions.size());
  while (!R.exhausted()) {
    const uint8_t *HdrData = R.raw(sizeof(CommitRecordHeader));
    if (R.failed())
      return false;
    CommitRecordHeader Hdr;
    std::memcpy(&Hdr, HdrData, sizeof(Hdr));
    // Every record comes from this loop's own commits, so its slot count is
    // the loop's; anything else is corruption (and would index past
    // Spec.Reductions below).
    if (Hdr.NumSlots != RedSlots.size())
      return false;
    const size_t SlotBytes = RedSlots.size() * sizeof(TxnContext::RedSlotState);
    const uint8_t *SlotData = R.raw(SlotBytes);
    const uint64_t LogBytes = R.u64();
    if (R.failed() || LogBytes > R.remaining())
      return false;
    if (SlotBytes != 0)
      std::memcpy(RedSlots.data(), SlotData, SlotBytes);
    WriteLog Log;
    if (!WriteLog::deserializeCompactChecked(
            R.raw(static_cast<size_t>(LogBytes)),
            static_cast<size_t>(LogBytes), Log))
      return false;
    Log.apply();
    for (size_t I = 0; I != RedSlots.size(); ++I)
      if (RedSlots[I].Active && RedSlots[I].Touched)
        TxnContext::commitReductionSlot(Spec.Reductions[I], RedSlots[I]);
    if (Config.Allocator)
      Config.Allocator->advanceBump(static_cast<unsigned>(Hdr.Worker),
                                    Hdr.BumpOffset);
  }
  return true;
}

WorkCmdStatus alter::readWorkCommand(int WorkFd, uint8_t Tag,
                                     WireNextCmd &Cmd,
                                     std::vector<uint8_t> &CatchUp) {
  for (;;) {
    if (!readFull(WorkFd, &Cmd, sizeof(Cmd)))
      return WorkCmdStatus::Closed;
    if (Cmd.CatchUpBytes > MaxCatchUpBytes)
      return WorkCmdStatus::Malformed;
    CatchUp.resize(static_cast<size_t>(Cmd.CatchUpBytes));
    if (!readFull(WorkFd, CatchUp.data(), CatchUp.size()))
      return WorkCmdStatus::Closed;
    // A command addressed to a dead predecessor (it died between the
    // parent's dispatch write and its read) is stale: running it would
    // re-execute a chunk the parent already completed via re-fork.
    if ((Cmd.Tag & RingDoorbellTagMask) == (Tag & RingDoorbellTagMask))
      return WorkCmdStatus::Ok;
  }
}

void alter::runWireChild(const LoopSpec &Spec, const ExecutorConfig &Config,
                         unsigned Worker, int64_t Chunk, int64_t FirstIter,
                         int64_t LastIter, int Fd, const ArmedFault &Fault) {
  markForkedChild();
  MetricsRegistry Reg;
  const std::vector<uint8_t> Message =
      buildChildCommitMessage(Spec, Config, Worker, Chunk, FirstIter,
                              LastIter, Fault, Config.Metrics ? &Reg : nullptr);
  writeAllToPipe(Fd, Message.data(), Message.size());
  ::close(Fd);
  _exit(0);
}

void alter::runWireChildRing(const LoopSpec &Spec,
                             const ExecutorConfig &Config, unsigned Worker,
                             int64_t Chunk, int64_t FirstIter,
                             int64_t LastIter, CommitRing &Ring,
                             int DoorbellFd, uint8_t DoorbellTag, int WorkFd,
                             const ArmedFault &Fault) {
  markForkedChild();
  const auto RingBell = [&](uint8_t Kind) {
    // A failed doorbell write (parent gone) is unrecoverable but also
    // unreportable; the template reaps us and the parent sees the frame.
    const uint8_t Bell = Kind | (DoorbellTag & RingDoorbellTagMask);
    (void)writeFull(DoorbellFd, &Bell, 1);
  };

  // Resident-child registry: survives across redispatches, but each
  // encodeCommitFrame takes-and-resets it, so chunk N's frame carries the
  // waits recorded since chunk N-1's frame (the final chunk's post-frame
  // waits are lost with the child — documented, and bounded to one chunk).
  MetricsRegistry Reg;
  MetricsRegistry *Metrics = Config.Metrics ? &Reg : nullptr;

  std::vector<uint8_t> CatchUp;
  ArmedFault F = Fault;
  for (;;) {
    const std::vector<uint8_t> Message = buildChildCommitMessage(
        Spec, Config, Worker, Chunk, FirstIter, LastIter, F, Metrics);
    // Publish through shared memory; the doorbell after every accepted
    // piece keeps the parent draining, so a message larger than the ring
    // makes progress under backpressure instead of deadlocking.
    const uint64_t PushT0 = Metrics ? nowNs() : 0;
    uint64_t Backoffs = 0;
    Ring.pushAll(Message.data(), Message.size(),
                 [&] { RingBell(RingDoorbellData); }, [&] { ++Backoffs; });
    if (Metrics && Backoffs != 0) {
      // Only backpressured publishes count: an uncontended memcpy is not a
      // wait, so the histogram measures full-ring stalls, not throughput.
      Metrics->record(HistogramId::RingBackpressureNs, nowNs() - PushT0);
      Metrics->addCounter(CounterId::RingWaits, Backoffs);
    }
    // Finish marks the record complete even when an injected truncation
    // keeps the frame from looking whole — and it is this chunk's LAST
    // doorbell, the invariant that lets the parent redispatch us under
    // the same attempt tag with no stale bytes in flight.
    RingBell(RingDoorbellFinish);
    const uint64_t WaitT0 = Metrics ? nowNs() : 0;
    if (WorkFd < 0)
      _exit(0);
    // Fork-free steady state: stay resident and wait for the parent to
    // hand us another chunk. Our memory is our snapshot plus this chunk's
    // (written-through) values — the parent only redispatches if the chunk
    // committed, making that memory a subset of committed state; otherwise
    // it kills us and re-forks from the template. A command that carries a
    // catch-up brings us up to committed state before the chunk runs.
    WireNextCmd Cmd;
    switch (readWorkCommand(WorkFd, DoorbellTag, Cmd, CatchUp)) {
    case WorkCmdStatus::Ok:
      break;
    case WorkCmdStatus::Closed:
      _exit(0); // EOF (pool teardown) or a hard error: we are done
    case WorkCmdStatus::Malformed:
      _exit(13);
    }
    // Finish-to-redispatch latency: the parent's validate + commit + next
    // dispatch, as seen from the resident child. Recorded now, shipped in
    // the NEXT chunk's frame (take-and-reset above).
    if (Metrics)
      Metrics->record(HistogramId::ValidateWaitNs, nowNs() - WaitT0);
    // A catch-up that does not decode leaves this memory in no known
    // state: exit abnormally, which the parent contains as a chunk fault
    // and answers with a fresh fork from the template.
    if (!replayCommitRecords(Spec, Config, CatchUp.data(), CatchUp.size()))
      _exit(13);
    Chunk = Cmd.Chunk;
    FirstIter = Cmd.First;
    LastIter = Cmd.Last;
    F = Cmd.Fault;
  }
}

bool alter::wireFrameLooksComplete(const uint8_t *Bytes, size_t Size) {
  if (Size < FrameHeaderBytes)
    return false;
  uint64_t Magic, PayloadLen;
  std::memcpy(&Magic, Bytes, sizeof(Magic));
  if (Magic != CommitFrameMagic)
    return true; // corrupt header: length untrustworthy, let decode reject
  std::memcpy(&PayloadLen, Bytes + sizeof(uint64_t), sizeof(PayloadLen));
  // Overflow-safe: compare payload bytes present, not header + length.
  return Size - FrameHeaderBytes >= PayloadLen;
}

bool alter::decodeChildReport(const std::vector<uint8_t> &Bytes,
                              const LoopSpec &Spec,
                              const RuntimeParams &Params, ChildReport &Rep,
                              std::string &Error) {
  if (Bytes.size() < FrameHeaderBytes) {
    Error = "truncated frame header";
    return false;
  }
  ByteReader R(Bytes.data(), Bytes.size());
  if (R.u64() != CommitFrameMagic) {
    Error = "bad message magic";
    return false;
  }
  const uint64_t PayloadLen = R.u64();
  const uint64_t Crc = R.u64();
  if (PayloadLen != Bytes.size() - FrameHeaderBytes) {
    Error = "frame length mismatch";
    return false;
  }
  if (Crc != wireCrc32(Bytes.data() + FrameHeaderBytes,
                       static_cast<size_t>(PayloadLen))) {
    Error = "frame CRC mismatch";
    return false;
  }

  Rep = ChildReport();
  Rep.LimitExceeded = R.u64() != 0;
  Rep.WorkNs = R.u64();
  Rep.Counts.InstrReadCalls = R.u64();
  Rep.Counts.InstrWriteCalls = R.u64();
  Rep.Counts.BytesRead = R.u64();
  Rep.Counts.BytesWritten = R.u64();
  Rep.MemTrafficBytes = R.u64();
  Rep.BumpOffset = R.u64();
  Rep.RawWireBytes = R.u64();
  Rep.WireBytes = Bytes.size();
  size_t Consumed = 0;
  if (R.failed() ||
      !deserializeAccessSet(Bytes.data() + R.position(), R.remaining(),
                            Rep.Reads, Consumed)) {
    Error = "corrupt read set";
    return false;
  }
  R.raw(Consumed);
  if (!deserializeAccessSet(Bytes.data() + R.position(), R.remaining(),
                            Rep.Writes, Consumed)) {
    Error = "corrupt write set";
    return false;
  }
  R.raw(Consumed);
  Rep.Counts.ReadSetWords = Rep.Reads.sizeWords();
  Rep.Counts.WriteSetWords = Rep.Writes.sizeWords();
  const uint64_t LogBytes = R.u64();
  if (R.failed() || LogBytes > R.remaining()) {
    Error = "corrupt write log length";
    return false;
  }
  const uint8_t *LogData = R.raw(static_cast<size_t>(LogBytes));
  if (!WriteLog::deserializeCompactChecked(
          LogData, static_cast<size_t>(LogBytes), Rep.Log)) {
    Error = "corrupt write log";
    return false;
  }
  const uint64_t NumSlots = R.u64();
  if (R.failed() || NumSlots != Spec.Reductions.size()) {
    Error = "reduction slot count mismatch";
    return false;
  }
  Rep.Slots.resize(NumSlots);
  for (uint64_t I = 0; I != NumSlots; ++I) {
    TxnContext::RedSlotState &S = Rep.Slots[I];
    S.Touched = R.u64() != 0;
    uint64_t AccBits = R.u64();
    S.Acc.Kind = Spec.Reductions[I].Kind;
    std::memcpy(&S.Acc.F, &AccBits, sizeof(AccBits));
    for (const EnabledReduction &E : Params.Reductions) {
      if (E.BindingIndex == I) {
        S.Active = true;
        S.Op = E.Op;
        S.Custom = E.Custom;
      }
    }
  }
  if (R.failed()) {
    Error = "message length inconsistent with contents";
    return false;
  }

  // The TRACE section. Bound the allocation by the physical bytes
  // remaining; the METRICS section after it consumes the rest.
  const uint64_t NumEvents = R.u64();
  if (R.failed() || NumEvents > R.remaining() / TraceEventWireBytes) {
    Error = "corrupt trace section";
    return false;
  }
  Rep.Trace.reserve(static_cast<size_t>(NumEvents));
  for (uint64_t I = 0; I != NumEvents; ++I) {
    TraceEvent E;
    E.StartNs = R.u64();
    E.DurNs = R.u64();
    E.Chunk = static_cast<int64_t>(R.u64());
    E.Arg0 = R.u64();
    E.Arg1 = R.u64();
    const uint64_t Packed = R.u64();
    const uint64_t Kind = Packed >> 32;
    if (Kind >= static_cast<uint64_t>(NumTraceEventKinds)) {
      Error = "corrupt trace event kind";
      return false;
    }
    E.Worker = static_cast<uint32_t>(Packed & 0xffffffffULL);
    E.Kind = static_cast<TraceEventKind>(Kind);
    Rep.Trace.push_back(E);
  }

  // The METRICS section — blob length, then the sparse registry, which
  // must consume the remaining bytes exactly; an empty blob means metrics
  // were off. The blob's internal consistency (ids in range, bucket totals
  // matching counts) is checked by the registry decoder; any violation
  // rejects the whole frame.
  const uint64_t MetricsBytes = R.u64();
  if (R.failed() || MetricsBytes != R.remaining()) {
    Error = "corrupt metrics section";
    return false;
  }
  const uint8_t *Blob = R.raw(static_cast<size_t>(MetricsBytes));
  if (MetricsBytes != 0 &&
      !MetricsRegistry::deserialize(Blob, static_cast<size_t>(MetricsBytes),
                                    Rep.Metrics)) {
    Error = "corrupt metrics blob";
    return false;
  }
  if (R.failed() || !R.exhausted()) {
    Error = "message length inconsistent with contents";
    return false;
  }
  return true;
}
