//===- runtime/StagePipelineExecutor.cpp ----------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// See StagePipelineExecutor.h for the architecture. Layout of this file:
//
//   - STGQ inter-stage queue records (framing, encode, decode)
//   - replica child main loop (runStageChild)
//   - parent engine (StagePipelineExecutor::run)
//
//===----------------------------------------------------------------------===//

#include "runtime/StagePipelineExecutor.h"

#include "memory/AlterAllocator.h"
#include "runtime/CommitJournal.h"
#include "runtime/CommitRing.h"
#include "runtime/ConflictDetector.h"
#include "runtime/CostModel.h"
#include "runtime/ShutdownSupervisor.h"
#include "runtime/TraceSink.h"
#include "runtime/TxnWire.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Io.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

using namespace alter;

namespace {

//===----------------------------------------------------------------------===
// STGQ records: the parent -> replica dispatch.
// Framed exactly like the commit wire — magic | payload length | CRC32 — so
// a corrupted queue record is REJECTED by the consumer, never trusted.
//===----------------------------------------------------------------------===

constexpr uint64_t StageQueueMagic = 0x3151475453ULL; // "STGQ1"
constexpr size_t StageFrameHeaderBytes = 3 * sizeof(uint64_t);

/// Exit code a replica uses when it rejects a corrupt inter-stage record;
/// the parent counts it as a wire reject rather than a child crash.
constexpr int StageQueueRejectExit = 13;

/// One inter-stage queue record: the chunk's iteration range, the armed
/// fault the parent took for it, and the tokens the sequential stage
/// produced.
struct StageCmd {
  int64_t Chunk = 0;
  int64_t First = 0;
  int64_t Last = 0;
  ArmedFault Fault;
  std::vector<uint64_t> Tokens;
};

void appendU64(std::vector<uint8_t> &Out, uint64_t V) {
  const uint8_t *P = reinterpret_cast<const uint8_t *>(&V);
  Out.insert(Out.end(), P, P + sizeof(V));
}

uint64_t readU64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

/// Serializes \p Cmd as a framed STGQ record. Parent and replicas are forks
/// of one process, so the ArmedFault struct ships as raw bytes.
void encodeStageCmd(std::vector<uint8_t> &Out, const StageCmd &Cmd) {
  std::vector<uint8_t> Payload;
  appendU64(Payload, static_cast<uint64_t>(Cmd.Chunk));
  appendU64(Payload, static_cast<uint64_t>(Cmd.First));
  appendU64(Payload, static_cast<uint64_t>(Cmd.Last));
  const uint8_t *F = reinterpret_cast<const uint8_t *>(&Cmd.Fault);
  Payload.insert(Payload.end(), F, F + sizeof(ArmedFault));
  appendU64(Payload, Cmd.Tokens.size());
  for (uint64_t T : Cmd.Tokens)
    appendU64(Payload, T);

  appendU64(Out, StageQueueMagic);
  appendU64(Out, Payload.size());
  appendU64(Out, wireCrc32(Payload.data(), Payload.size()));
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

/// True when \p Size bytes hold a complete STGQ frame. Like
/// wireFrameLooksComplete, a full header with a corrupt magic counts as
/// complete — the length field is untrustworthy and decode rejects it.
bool stageFrameComplete(const uint8_t *Bytes, size_t Size) {
  if (Size < StageFrameHeaderBytes)
    return false;
  if (readU64(Bytes) != StageQueueMagic)
    return true;
  return Size - StageFrameHeaderBytes >= readU64(Bytes + 8);
}

/// Verifies the frame and decodes one record. \p Consumed receives the
/// total frame size on success.
bool decodeStageCmd(const uint8_t *Bytes, size_t Size, StageCmd &Cmd,
                    size_t &Consumed) {
  if (Size < StageFrameHeaderBytes)
    return false;
  if (readU64(Bytes) != StageQueueMagic)
    return false;
  const uint64_t PayloadLen = readU64(Bytes + 8);
  if (PayloadLen > Size - StageFrameHeaderBytes)
    return false;
  const uint8_t *P = Bytes + StageFrameHeaderBytes;
  if (readU64(Bytes + 16) != wireCrc32(P, PayloadLen))
    return false;
  const size_t FixedBytes = 3 * sizeof(uint64_t) + sizeof(ArmedFault) +
                            sizeof(uint64_t);
  if (PayloadLen < FixedBytes)
    return false;
  Cmd.Chunk = static_cast<int64_t>(readU64(P));
  Cmd.First = static_cast<int64_t>(readU64(P + 8));
  Cmd.Last = static_cast<int64_t>(readU64(P + 16));
  std::memcpy(&Cmd.Fault, P + 24, sizeof(ArmedFault));
  const uint64_t NumTokens = readU64(P + 24 + sizeof(ArmedFault));
  if (NumTokens * sizeof(uint64_t) != PayloadLen - FixedBytes)
    return false;
  Cmd.Tokens.resize(NumTokens);
  const uint8_t *T = P + FixedBytes;
  for (uint64_t I = 0; I != NumTokens; ++I)
    Cmd.Tokens[I] = readU64(T + I * sizeof(uint64_t));
  Consumed = StageFrameHeaderBytes + PayloadLen;
  return true;
}

//===----------------------------------------------------------------------===
// Replica child side
//===----------------------------------------------------------------------===

/// Executes one replica chunk: the plan's replicated stage, transactionally,
/// then ships the framed commit message into \p OutRing with doorbells
/// through \p Bell.
template <typename BellFn>
void runStageChunk(const LoopSpec &Spec, TxnContext &Ctx,
                   const ExecutorConfig &Config, unsigned Worker,
                   const StageCmd &Cmd, CommitRing &OutRing,
                   const BellFn &Bell) {
  if (Cmd.Fault.Armed && Cmd.Fault.Kind == FaultKind::ChildCrash)
    ::raise(SIGSEGV); // the injected "buggy stage worker" dies pre-work

  TraceBuffer Trace(Config.Trace);
  if (Trace.events())
    Trace.record(TraceEventKind::ChunkStart, Worker, Cmd.Chunk, traceNowNs(),
                 0, static_cast<uint64_t>(Cmd.First),
                 static_cast<uint64_t>(Cmd.Last));

  Ctx.beginTxn();
  const uint64_t TraceT0 = Trace.events() ? traceNowNs() : 0;
  const uint64_t T0 = cpuNowNs();
  // The sequential stage already produced one token per iteration of this
  // chunk.
  if (Cmd.Tokens.size() != static_cast<size_t>(Cmd.Last - Cmd.First))
    _exit(StageQueueRejectExit);
  for (int64_t I = Cmd.First; I != Cmd.Last; ++I)
    Spec.Stage.Second(Ctx, I, Cmd.Tokens[static_cast<size_t>(I - Cmd.First)]);
  // No captureRedo pass: the replica's buffered write log already holds
  // the final values (see runStageChild).
  const uint64_t WorkNs = cpuNowNs() - T0;
  if (Trace.events())
    Trace.record(TraceEventKind::ChunkExec, Worker, Cmd.Chunk, TraceT0,
                 WorkNs, Ctx.readSet().sizeWords(),
                 Ctx.writeSet().sizeWords());

  if (Cmd.Fault.Armed && Cmd.Fault.Kind == FaultKind::ChildKill)
    ::raise(SIGKILL); // lands after the work, before the report

  std::vector<uint8_t> Message =
      encodeCommitFrame(Ctx, Config, Worker, Cmd.Chunk, WorkNs, Trace);
  applyFrameFault(Message, Cmd.Fault);
  OutRing.pushAll(Message.data(), Message.size(),
                  [&] { Bell(RingDoorbellData); });
  Bell(RingDoorbellFinish);
}

/// Replica main loop: block on the dispatch doorbell pipe, drain the
/// in-ring until a full STGQ record (the Finish doorbell delimits it), run
/// the chunk, publish the report, repeat. EOF on the dispatch pipe is the
/// teardown signal; a corrupt record exits with StageQueueRejectExit.
[[noreturn]] void runStageChild(const LoopSpec &Spec,
                                const ExecutorConfig &Config, unsigned Worker,
                                CommitRing &InRing, int WorkR,
                                CommitRing &OutRing, int BellW, uint8_t Tag) {
  // fatalError in a replica must _exit, never abort(): an abort would dump
  // core and re-run parent atexit handlers from the fork image.
  markForkedChild();
  ::signal(SIGPIPE, SIG_IGN);

  const auto Bell = [&](uint8_t Kind) {
    const uint8_t B =
        static_cast<uint8_t>(Kind | (Tag & RingDoorbellTagMask));
    if (!writeFull(BellW, &B, 1))
      _exit(0); // parent tore the pipe down: we are done
  };

  // One context for the replica's whole generation: beginTxn() per chunk
  // reuses the warm access-set and log capacity (cold hash-table growth
  // would otherwise dominate small chunks). Writes are buffered — they
  // exist only to be shipped on the commit wire, so skipping the undo
  // snapshot and the in-place store keeps the child's COW image clean and
  // makes the captureRedo pass unnecessary.
  TxnContext Ctx(ContextMode::Transactional, &Config.Params, &Spec,
                 Config.Allocator, Worker, Config.Limits);
  Ctx.enableBufferedWrites();

  std::vector<uint8_t> Buf;
  for (;;) {
    // Collect one dispatch record: doorbells until Finish, draining the
    // ring after each so a record larger than the ring still flows.
    bool Finish = false;
    while (!Finish) {
      uint8_t B = 0;
      const ssize_t N = ::read(WorkR, &B, 1);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        _exit(0); // EOF: clean teardown
      if ((B & RingDoorbellTagMask) != (Tag & RingDoorbellTagMask))
        continue; // stale doorbell from a previous generation
      InRing.drainInto(Buf);
      Finish = (B & RingDoorbellKindMask) == RingDoorbellFinish;
    }
    InRing.drainInto(Buf);
    StageCmd Cmd;
    size_t Consumed = 0;
    // The parent has finished publishing: an incomplete or corrupt frame
    // here is queue corruption, not backpressure. Reject and die; the
    // parent contains it like a child crash.
    if (!stageFrameComplete(Buf.data(), Buf.size()) ||
        !decodeStageCmd(Buf.data(), Buf.size(), Cmd, Consumed))
      _exit(StageQueueRejectExit);
    Buf.erase(Buf.begin(),
              Buf.begin() + static_cast<std::ptrdiff_t>(Consumed));
    runStageChunk(Spec, Ctx, Config, Worker, Cmd, OutRing, Bell);
  }
}

/// A replica arrival buffered until the retirement frontier reaches it.
struct StageArrival {
  ChildReport Rep;
  unsigned WorkerIdx = 0; // replica index (arena = WorkerIdx + 1)
};

/// Parent-side record of one open (executed, unretired) sequential-stage
/// transaction.
struct SeqChunkState {
  std::unique_ptr<TxnContext> Ctx;
  uint64_t SeqNs = 0;
  std::vector<uint64_t> Tokens;
};

/// One resident replica and its queue endpoints.
struct StageWorker {
  pid_t Pid = -1;
  std::unique_ptr<CommitRing> InRing;  // parent -> replica dispatch records
  std::unique_ptr<CommitRing> OutRing; // replica -> parent reports
  int WorkW = -1;                      // dispatch doorbells (parent writes)
  int BellR = -1;                      // report doorbells (parent reads)
  int64_t Chunk = -1;                  // in-flight chunk, -1 when free
  std::vector<uint8_t> Buf;            // drained out-ring bytes
};

/// Real-time no-progress floor for the hung-replica backstop: small enough
/// to keep fault tests fast, large enough that fork + queue latency on a
/// loaded host cannot trip it spuriously.
constexpr uint64_t StageStallFloorNs = 250'000'000; // 250ms

} // namespace

RunResult StagePipelineExecutor::run(const LoopSpec &Spec) {
  RunResult Result;
  if (!Spec.Stage.valid()) {
    Result.Status = RunStatus::Crash;
    Result.Detail = "loop carries no stage decomposition";
    return Result;
  }
  // Staged chunks never misspeculate, so the pipeline runs coarser chunks
  // than the loop's abort-tuned chunk factor (stagedChunkFactor), which
  // amortizes the per-chunk dispatch, context, and frame costs that would
  // otherwise dominate the sequential lane.
  const int64_t Cf =
      stagedChunkFactor(Config.Params.ChunkFactor > 0
                            ? Config.Params.ChunkFactor
                            : globalChunkFactor());
  Result.ChunkFactorUsed = Cf;
  Result.ScheduleUsed = ScheduleKind::Staged;
  const int64_t N = Spec.NumIterations;
  const int64_t NumChunks = (N + Cf - 1) / Cf;
  if (NumChunks == 0)
    return Result;
  // The parent owns the sequential lane (worker/arena 0); everyone else is
  // a replica of the parallel stage.
  const unsigned NumPar = std::max(1u, Config.NumWorkers) - 1 > 0
                              ? Config.NumWorkers - 1
                              : 1;
  const uint64_t DeadlineNs =
      Config.SeqBaselineNs == 0
          ? 0
          : static_cast<uint64_t>(DeadlineFactor *
                                  static_cast<double>(Config.SeqBaselineNs));
  const CostModel &Model = CostModel::calibrated();

  // The stages promise disjointness, so validation is a safety net, not a
  // speculation policy. REPLICAS track under FULL regardless of the loop's
  // annotation: their chunks sit off the sequential lane, so the extra
  // tracking is paid on the replicated (cheap) side and makes every
  // replica-stage overlap with a sequential commit epoch observable. The
  // PARENT's sequential lane runs with conflict tracking disabled — it is
  // the pipeline's critical path, and set maintenance there would charge
  // the staged schedule per-store costs the plan's disjointness contract
  // makes unnecessary (the lane is never validated against). The checks
  // this forgoes — replica footprints against sequential-lane accesses —
  // are exactly the trust a breakable-dependence annotation already
  // extends; the cross-footprint checks below still fire for any plan
  // whose replicated stage performs tracked accesses.
  ExecutorConfig SC = Config;
  SC.Params.Conflict = ConflictPolicy::FULL;

  ConflictDetector Detector(ConflictPolicy::FULL);
  TraceSink Sink(Config.Trace);

  std::vector<StageWorker> Workers(NumPar);
  std::map<int64_t, SeqChunkState> SeqOpen;   // executed, unretired
  // Sequential-lane contexts are pooled across chunks: beginTxn() keeps the
  // warm undo-log and access-set capacity, and cold hash-table growth on a
  // fresh context is a per-chunk cost the pipeline's critical lane cannot
  // afford. Pool entries already have conflict tracking disabled.
  std::vector<std::unique_ptr<TxnContext>> CtxPool;
  auto takeSeqCtx = [&]() -> std::unique_ptr<TxnContext> {
    if (!CtxPool.empty()) {
      auto Ctx = std::move(CtxPool.back());
      CtxPool.pop_back();
      return Ctx;
    }
    auto Ctx = std::make_unique<TxnContext>(
        ContextMode::Transactional, &Config.Params, &Spec, Config.Allocator,
        /*Worker=*/0u, Config.Limits);
    // The sequential lane is never validated against: it runs in iteration
    // order in this process, and the plan's disjointness contract promises
    // the replicated stage reads none of its writes. Undo logging stays
    // (restart-the-world rolls open chunks back); the conflict sets would
    // only be dead weight on the pipeline's critical lane.
    Ctx->disableConflictTracking();
    return Ctx;
  };
  std::map<int64_t, StageArrival> Arrived;    // replica reports by chunk
  std::map<int64_t, unsigned> FaultCounts;
  // Cross-stage footprints for the plan-contract checks (word keys). Kept
  // across restarts: rolled-back halves re-execute deterministically, so
  // stale entries are a conservative superset.
  std::unordered_set<uintptr_t> SeqReadWords;
  std::unordered_set<uintptr_t> ParWriteWords;

  int64_t Frontier = 0;     // next chunk to retire
  int64_t NextSeq = 0;      // next sequential half to execute
  int64_t NextDispatch = 0; // next chunk to hand to a replica
  const int64_t LeadMax = 2 * static_cast<int64_t>(NumPar) + 2;
  unsigned Generation = 0;
  uint64_t GenForkSeq = 0;
  bool Crashed = false;
  bool RestartPending = false;
  std::string CrashDetail;
  int64_t FaultChunk = -1; // chunk the pending restart indicts
  int64_t LastStallChunk = -1;

  // Modeled pipeline clock (see header): the sequential lane, one lane per
  // replica, and the in-order retirement frontier.
  double SeqLaneNs = 0.0;
  std::vector<double> ParFreeNs(NumPar, 0.0);
  double RetireClockNs = 0.0;

  const uint64_t RealStart = nowNs();
  uint64_t LastProgressNs = RealStart;

  auto finishStats = [&] {
    Result.Stats.RealTimeNs = nowNs() - RealStart;
    // One final join closes the modeled pipeline (header comment).
    Result.Stats.SimTimeNs =
        static_cast<uint64_t>(RetireClockNs + Model.BarrierNs);
    Result.Stats.WorkerSlotNs = Result.Stats.SimTimeNs * Config.NumWorkers;
    Result.logRunDone("staged");
    Sink.finish(Result);
  };

  auto killWorker = [&](unsigned W) {
    StageWorker &SW = Workers[W];
    if (SW.Pid > 0) {
      ::kill(SW.Pid, SIGKILL);
      int Status = 0;
      ChildRusage Usage;
      if (waitpidRusage(SW.Pid, &Status, &Usage) > 0)
        Result.Stats.addChildUsage(Usage);
    }
    if (SW.WorkW >= 0)
      ::close(SW.WorkW);
    if (SW.BellR >= 0)
      ::close(SW.BellR);
    SW.Pid = -1;
    SW.WorkW = SW.BellR = -1;
    SW.Chunk = -1;
    SW.Buf.clear();
    SW.InRing.reset();
    SW.OutRing.reset();
  };

  auto killAllWorkers = [&] {
    for (unsigned W = 0; W != NumPar; ++W)
      killWorker(W);
  };

  // Rolls back every open sequential-stage transaction newest-first (LIFO:
  // each undo log restores the bytes the NEXT-older transaction observed).
  auto rollbackOpenSeq = [&] {
    for (auto It = SeqOpen.rbegin(); It != SeqOpen.rend(); ++It) {
      It->second.Ctx->suspendTxn();
      It->second.Ctx->abortTxn();
      CtxPool.push_back(std::move(It->second.Ctx));
    }
    SeqOpen.clear();
  };

  // Contained infrastructure failure: charge the chunk's fault budget and
  // request a world restart, or — budget exhausted — fail the run with a
  // Crash the recovery ladder can absorb.
  auto chunkFault = [&](int64_t Chunk, const std::string &Why) {
    const unsigned Count = ++FaultCounts[Chunk];
    if (Count > Config.ChunkFaultRetryLimit) {
      Crashed = true;
      Result.FailedChunk = Chunk;
      CrashDetail =
          strprintf("chunk %lld failed %u consecutive attempts (%s)",
                    static_cast<long long>(Chunk), Count, Why.c_str());
      return;
    }
    if (Sink.events())
      Sink.event(TraceEventKind::FaultContained, /*Worker=*/0, Chunk,
                 traceNowNs(), 0, /*Arg0=*/Count);
    RestartPending = true;
    if (FaultChunk < 0)
      FaultChunk = Chunk;
  };

  // A detected plan-contract violation: the stages were not disjoint after
  // all. Never retried — re-running the same plan re-violates — the run
  // fails into the ladder, which re-executes from committed state.
  auto planViolation = [&](int64_t Chunk, const char *What) {
    Crashed = true;
    Result.FailedChunk = Chunk;
    CrashDetail = strprintf("stage plan violation at chunk %lld (%s)",
                            static_cast<long long>(Chunk), What);
  };

  auto setOverlaps = [](const AccessSet &Set,
                        const std::unordered_set<uintptr_t> &Words) {
    for (uintptr_t Key : Set.words())
      if (Words.count(Key))
        return true;
    return false;
  };

  auto forkWorker = [&](unsigned W) -> bool {
    StageWorker &SW = Workers[W];
    // Resource exhaustion anywhere in here (EMFILE on a pipe, ENOMEM on a
    // ring mapping, EAGAIN on the fork) is a contained per-generation
    // outcome: forkAllWorkers charges the frontier chunk's fault budget
    // and the ladder absorbs a Crash if it never recovers. The injected
    // pipeexhaust@W / mmapfail@W setup faults strike the same paths.
    if (FaultPlan::global().takeSetup(FaultKind::PipeExhaust, W).Armed) {
      if (Sink.events())
        Sink.event(TraceEventKind::ResourceFault, /*Worker=*/W + 1,
                   /*Chunk=*/-1, traceNowNs(), 0, /*Arg0=*/1);
      return false;
    }
    int WorkP[2] = {-1, -1};
    int BellP[2] = {-1, -1};
    if (::pipe(WorkP) != 0) {
      if (Sink.events())
        Sink.event(TraceEventKind::ResourceFault, /*Worker=*/W + 1,
                   /*Chunk=*/-1, traceNowNs(), 0, /*Arg0=*/1);
      return false;
    }
    if (::pipe(BellP) != 0) {
      ::close(WorkP[0]);
      ::close(WorkP[1]);
      if (Sink.events())
        Sink.event(TraceEventKind::ResourceFault, /*Worker=*/W + 1,
                   /*Chunk=*/-1, traceNowNs(), 0, /*Arg0=*/1);
      return false;
    }
    const bool InjectMmap =
        FaultPlan::global().takeSetup(FaultKind::MmapFail, W).Armed;
    SW.InRing = std::make_unique<CommitRing>();
    SW.OutRing = std::make_unique<CommitRing>();
    if (InjectMmap || !SW.InRing->valid() || !SW.OutRing->valid()) {
      ::close(WorkP[0]);
      ::close(WorkP[1]);
      ::close(BellP[0]);
      ::close(BellP[1]);
      SW.InRing.reset();
      SW.OutRing.reset();
      if (Sink.events())
        Sink.event(TraceEventKind::ResourceFault, /*Worker=*/W + 1,
                   /*Chunk=*/-1, traceNowNs(), 0, /*Arg0=*/0);
      return false;
    }
    const uint8_t Tag = static_cast<uint8_t>(Generation);
    const pid_t Pid = forkFlushed();
    if (Pid < 0) {
      ::close(WorkP[0]);
      ::close(WorkP[1]);
      ::close(BellP[0]);
      ::close(BellP[1]);
      SW.InRing.reset();
      SW.OutRing.reset();
      return false;
    }
    if (Pid == 0) {
      ::close(WorkP[1]);
      ::close(BellP[0]);
      // Drop the other replicas' endpoints: a sibling holding a doorbell
      // write end would mask that sibling's death from the parent's EOF
      // detection.
      for (unsigned O = 0; O != NumPar; ++O) {
        if (O == W)
          continue;
        if (Workers[O].WorkW >= 0)
          ::close(Workers[O].WorkW);
        if (Workers[O].BellR >= 0)
          ::close(Workers[O].BellR);
      }
#ifdef __linux__
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
      runStageChild(Spec, SC, W + 1, *SW.InRing, WorkP[0], *SW.OutRing,
                    BellP[1], Tag);
    }
    ::close(WorkP[0]);
    ::close(BellP[1]);
    SW.Pid = Pid;
    SW.WorkW = WorkP[1];
    SW.BellR = BellP[0];
    SW.Chunk = -1;
    SW.Buf.clear();
    ++Result.Stats.ColdForks;
    if (Sink.events())
      Sink.event(TraceEventKind::Fork, /*Worker=*/0, /*Chunk=*/-1,
                 traceNowNs(), 0, /*Arg0=*/W + 1, /*Arg1=*/3);
    return true;
  };

  // (Re)fork the whole replica generation from committed state. The fresh
  // snapshot makes every pre-restart epoch — including rolled-back
  // sequential halves — invisible to the new generation's validation.
  auto forkAllWorkers = [&] {
    for (unsigned W = 0; W != NumPar; ++W) {
      if (!forkWorker(W)) {
        ++Result.Stats.NumForkFailures;
        ++Result.Stats.ResourceFaults;
        for (unsigned O = 0; O <= W; ++O)
          killWorker(O);
        chunkFault(Frontier, "fork/pipe failure");
        RestartPending = true;
        return false;
      }
    }
    GenForkSeq = Detector.commitSeq();
    Detector.pruneEpochsThrough(GenForkSeq);
    return true;
  };

  auto restartWorld = [&] {
    ++Generation;
    killAllWorkers();
    rollbackOpenSeq();
    Arrived.clear();
    NextSeq = NextDispatch = Frontier;
    FaultChunk = -1;
    RestartPending = false;
    if (forkAllWorkers())
      LastProgressNs = nowNs();
  };

  auto writeDispatchBell = [&](StageWorker &SW, uint8_t Kind) {
    const uint8_t B = static_cast<uint8_t>(
        Kind | (static_cast<uint8_t>(Generation) & RingDoorbellTagMask));
    // EPIPE (dead replica) surfaces via the doorbell EOF.
    (void)writeFull(SW.WorkW, &B, 1);
  };

  // Executes the sequential half of chunk \p C in the parent: one
  // transaction, held open — its in-place writes carry the SCC to the
  // next chunk — until the frontier retires it.
  auto execSeqChunk = [&](int64_t C) {
    const int64_t First = C * Cf;
    const int64_t Last = std::min<int64_t>(First + Cf, N);
    SeqChunkState SCS;
    SCS.Ctx = takeSeqCtx();
    SCS.Ctx->beginTxn();
    SCS.Tokens.reserve(static_cast<size_t>(Last - First));
    const uint64_t T0 = cpuNowNs();
    for (int64_t I = First; I != Last; ++I)
      SCS.Tokens.push_back(Spec.Stage.First(*SCS.Ctx, I));
    SCS.SeqNs = cpuNowNs() - T0;
    if (SCS.Ctx->limitExceeded()) {
      // Roll this transaction back before indicting it, so the crash exit
      // leaves memory at committed state.
      SCS.Ctx->suspendTxn();
      SCS.Ctx->abortTxn();
      CtxPool.push_back(std::move(SCS.Ctx));
      Crashed = true;
      Result.FailedChunk = C;
      CrashDetail = strprintf(
          "sequential stage (chunk %lld) exceeded the access-set memory cap",
          static_cast<long long>(C));
      return;
    }
    if (setOverlaps(SCS.Ctx->readSet(), ParWriteWords) ||
        setOverlaps(SCS.Ctx->writeSet(), ParWriteWords)) {
      SeqOpen.emplace(C, std::move(SCS)); // rolled back by the crash exit
      planViolation(C, "sequential stage touched replica-stage writes");
      return;
    }
    // Publish the half's writes as a commit epoch so every replica
    // validation from this generation sees them.
    Detector.recordCommitEpoch(SCS.Ctx->writeSet());
    for (uintptr_t Key : SCS.Ctx->readSet().words())
      SeqReadWords.insert(Key);
    SeqOpen.emplace(C, std::move(SCS));
  };

  // Hands chunk \p C to replica \p W through its dispatch queue.
  auto dispatchChunk = [&](unsigned W, int64_t C) {
    StageWorker &SW = Workers[W];
    const int64_t First = C * Cf;
    const int64_t Last = std::min<int64_t>(First + Cf, N);
    faultParentKillPoint(); // crash-restart: parent dies at dispatch
    ArmedFault Fault;
    if (FaultPlan::global().enabled()) {
      // Fault points address the ORIGINAL coordinates of the work: a
      // salvage sub-run re-indexes chunks, so map back before consuming.
      FaultCoords FC{C, First, Last};
      if (Spec.FaultRemap)
        FC = Spec.FaultRemap(C, First, Last);
      Fault = FaultPlan::global().take(FC.Chunk, FC.FirstIter, FC.LastIter);
    }
    if (Fault.Armed && Fault.Kind == FaultKind::SignalStorm) {
      // The storm targets the parent, not the chunk: latch a shutdown
      // request; the main loop winds the pipeline down into Interrupted.
      requestShutdown();
      return;
    }
    if (Fault.Armed && Fault.Kind == FaultKind::ForkFail) {
      ++Result.Stats.NumForkFailures;
      ++Result.Stats.ResourceFaults;
      if (Sink.events())
        Sink.event(TraceEventKind::ResourceFault, /*Worker=*/W + 1, C,
                   traceNowNs(), 0, /*Arg0=*/2);
      chunkFault(C, "fork/pipe failure");
      return;
    }
    bool FlipRecord = false;
    uint64_t FlipSeed = 0;
    int64_t FlipChunk = 0;
    if (Fault.Armed) {
      if (Fault.Kind == FaultKind::QueueFlip) {
        // Parent-side fault: corrupt the queue record itself, not the
        // replica's behavior.
        FlipRecord = true;
        FlipSeed = Fault.Seed;
        FlipChunk = Fault.Chunk;
        Fault = ArmedFault();
      } else if (Fault.Kind == FaultKind::TemplatePoison) {
        Fault = ArmedFault(); // no warm template here: consumed as a no-op
      }
    }
    StageCmd Cmd;
    Cmd.Chunk = C;
    Cmd.First = First;
    Cmd.Last = Last;
    Cmd.Fault = Fault;
    auto It = SeqOpen.find(C);
    assert(It != SeqOpen.end() && "dispatch before sequential half ran");
    Cmd.Tokens = It->second.Tokens;
    std::vector<uint8_t> Frame;
    encodeStageCmd(Frame, Cmd);
    if (FlipRecord)
      faultBitFlipWire(Frame, FlipSeed, FlipChunk);
    if (Sink.events())
      Sink.event(TraceEventKind::StageDispatch, /*Worker=*/W + 1, C,
                 traceNowNs(), 0, /*Arg0=*/Frame.size(),
                 /*Arg1=*/Cmd.Tokens.size());
    SW.Chunk = C;
    SW.InRing->pushAll(Frame.data(), Frame.size(),
                       [&] { writeDispatchBell(SW, RingDoorbellData); });
    writeDispatchBell(SW, RingDoorbellFinish);
    LastProgressNs = nowNs();
    Result.Stats.QueueDepthPeak = std::max<uint64_t>(
        Result.Stats.QueueDepthPeak, static_cast<uint64_t>(NextSeq - Frontier));
  };

  // Absorbs one replica's decoded report into the run statistics.
  auto absorbReport = [&](const ChildReport &Rep) {
    Result.Stats.countTransaction(Rep.Counts);
    Result.Stats.WireBytes += Rep.WireBytes;
    Result.Stats.WireBytesRaw += Rep.RawWireBytes;
    Result.Stats.WorkerBusyNs += Rep.WorkNs;
    Sink.absorbChild(Rep.Trace);
  };

  // A replica's doorbell pipe reported EOF: it died (fault injection, a
  // rejected queue record, or a real crash). Classify, then restart.
  auto workerDied = [&](unsigned W) {
    StageWorker &SW = Workers[W];
    int Status = 0;
    ChildRusage Usage;
    if (waitpidRusage(SW.Pid, &Status, &Usage) > 0)
      Result.Stats.addChildUsage(Usage);
    SW.Pid = -1;
    const bool QueueReject =
        WIFEXITED(Status) && WEXITSTATUS(Status) == StageQueueRejectExit;
    if (QueueReject)
      ++Result.Stats.NumWireRejects;
    else
      ++Result.Stats.NumChildCrashes;
    const int64_t Indicted = SW.Chunk >= 0 ? SW.Chunk : Frontier;
    chunkFault(Indicted,
               QueueReject ? "replica rejected a corrupt inter-stage record"
                           : "stage replica terminated abnormally");
  };

  // Tries to cut one complete commit frame from worker \p W's drained
  // bytes; an incomplete one waits for more. Rejections go through
  // chunkFault.
  auto completeWorker = [&](unsigned W) {
    StageWorker &SW = Workers[W];
    if (!wireFrameLooksComplete(SW.Buf.data(), SW.Buf.size()))
      return;
    // Slice the exact commit frame: the decoder demands an exact-length
    // buffer. A corrupt magic poisons the length field, so hand the whole
    // buffer over and let the decode reject it.
    size_t FrameLen = SW.Buf.size();
    if (SW.Buf.size() >= 24) {
      const uint64_t PayloadLen = readU64(SW.Buf.data() + 8);
      if (24 + PayloadLen <= SW.Buf.size())
        FrameLen = static_cast<size_t>(24 + PayloadLen);
    }
    std::vector<uint8_t> Frame(SW.Buf.begin(),
                               SW.Buf.begin() +
                                   static_cast<std::ptrdiff_t>(FrameLen));
    ChildReport Rep;
    std::string Error;
    if (!decodeChildReport(Frame, Spec, SC.Params, Rep, Error)) {
      ++Result.Stats.NumWireRejects;
      const int64_t C = SW.Chunk;
      SW.Buf.clear();
      SW.Chunk = -1;
      chunkFault(C, "rejected stage commit message: " + Error);
      return;
    }
    SW.Buf.erase(SW.Buf.begin(),
                 SW.Buf.begin() + static_cast<std::ptrdiff_t>(FrameLen));
    const int64_t C = SW.Chunk;
    SW.Chunk = -1;
    // A blown access set still counts, as on the other engines.
    absorbReport(Rep);
    if (Rep.LimitExceeded) {
      Crashed = true;
      Result.FailedChunk = C;
      CrashDetail = strprintf(
          "stage replica %u (chunk %lld) exceeded the access-set memory cap",
          W, static_cast<long long>(C));
      return;
    }
    Arrived.emplace(C, StageArrival{std::move(Rep), W});
    LastProgressNs = nowNs();
  };

  // Advances the modeled pipeline clock for one retired chunk. The chunk
  // occupies the LEAST-LOADED modeled replica lane, not the replica that
  // actually ran it here: on the modeled P-core machine the parent hands
  // work to whichever replica is free, and the host scheduler's skew (which
  // timeshared process happened to finish chunks faster) must not leak
  // into the modeled clock as phantom lane imbalance.
  auto advanceModel = [&](int64_t C, uint64_t SeqNs, uint64_t ParNs,
                          uint64_t CommitBytes, uint64_t CheckWords,
                          uint64_t TokenBytes) {
    const double DispatchCost =
        Model.StageDispatchNs +
        static_cast<double>(TokenBytes) * Model.CommitNsPerByte;
    const double CommitCost =
        static_cast<double>(CheckWords) * Model.CheckNsPerWord +
        static_cast<double>(CommitBytes) * Model.CommitNsPerByte;
    double &Lane = *std::min_element(ParFreeNs.begin(), ParFreeNs.end());
    // Sequential lane produces, a replica lane consumes; the parent lane
    // also pays the serialized validate/commit that closes the chunk.
    SeqLaneNs += static_cast<double>(SeqNs) + DispatchCost;
    const double Start = std::max(SeqLaneNs, Lane);
    const double Done = Start + static_cast<double>(ParNs);
    Lane = Done;
    SeqLaneNs += CommitCost;
    RetireClockNs = std::max({RetireClockNs, Done + CommitCost, SeqLaneNs});
    if (Sink.events())
      Sink.event(TraceEventKind::StageRetire, /*Worker=*/0, C, traceNowNs(),
                 0, /*Arg0=*/SeqNs, /*Arg1=*/ParNs);
  };

  // Commits one replica report (the parallel half of chunk \p C).
  auto commitParHalf = [&](StageArrival &A, int64_t C) {
    ++Result.Stats.NumCommitted;
    Detector.recordCommitEpoch(A.Rep.Writes);
    for (uintptr_t Key : A.Rep.Writes.words())
      ParWriteWords.insert(Key);
    A.Rep.Log.apply();
    for (unsigned I = 0; I != A.Rep.Slots.size(); ++I)
      if (A.Rep.Slots[I].Active && A.Rep.Slots[I].Touched)
        TxnContext::commitReductionSlot(Spec.Reductions[I], A.Rep.Slots[I]);
    if (Config.Allocator)
      Config.Allocator->advanceBump(A.WorkerIdx + 1, A.Rep.BumpOffset);
    if (Sink.events())
      Sink.event(TraceEventKind::Commit, /*Worker=*/0, C, traceNowNs(), 0,
                 /*Arg0=*/A.Rep.Log.dataBytes());
  };

  // Validates the replica half of chunk \p C against the plan contract.
  auto validatePar = [&](const StageArrival &A, int64_t C) -> bool {
    faultParentKillPoint(); // crash-restart: parent dies at validate
    const uint64_t ValT0 = Sink.events() ? traceNowNs() : 0;
    const bool Conflicts =
        Detector.hasConflictSince(GenForkSeq, A.Rep.Reads, A.Rep.Writes);
    if (Sink.events())
      Sink.event(TraceEventKind::Validate, /*Worker=*/0, C, ValT0,
                 traceNowNs() - ValT0, /*Arg0=*/Conflicts ? 1 : 0,
                 /*Arg1=*/Detector.lastConflictWord());
    if (Conflicts) {
      planViolation(C, "replica stage overlapped a commit epoch");
      return false;
    }
    if (setOverlaps(A.Rep.Writes, SeqReadWords)) {
      planViolation(C, "replica-stage writes hit the sequential read set");
      return false;
    }
    return true;
  };

  // Retires every chunk whose report has arrived at the frontier.
  auto retireFrontier = [&] {
    while (!Crashed && !RestartPending && Frontier != NumChunks) {
      auto It = Arrived.find(Frontier);
      if (It == Arrived.end())
        return;
      StageArrival &A = It->second;
      const int64_t C = Frontier;
      if (!validatePar(A, C))
        return;
      const int64_t First = C * Cf;
      const int64_t Last = std::min<int64_t>(First + Cf, N);
      const uint64_t CheckWords =
          A.Rep.Reads.sizeWords() + A.Rep.Writes.sizeWords();
      const uint64_t TokenBytes =
          StageFrameHeaderBytes +
          static_cast<uint64_t>(Last - First) * sizeof(uint64_t);
      auto SIt = SeqOpen.find(C);
      assert(SIt != SeqOpen.end() && "retiring a chunk with no seq half");
      SeqChunkState &SCS = SIt->second;
      const uint64_t ParNs = A.Rep.WorkNs;
      const uint64_t SeqNs = SCS.SeqNs;
      uint64_t CommitBytes = A.Rep.Log.dataBytes();
      commitParHalf(A, C);
      // Retire the sequential half: its writes are already in place, so
      // capture them as redo and commit (reduction merges, deferred frees)
      // without restoring.
      Result.Stats.countTransaction(SCS.Ctx->counts());
      ++Result.Stats.NumCommitted;
      Result.Stats.WorkerBusyNs += SCS.SeqNs;
      const uint64_t SeqLogBytes = SCS.Ctx->writeLog().dataBytes();
      CommitBytes += SeqLogBytes;
      SCS.Ctx->captureRedo();
      SCS.Ctx->commitTxn();
      if (Sink.events())
        Sink.event(TraceEventKind::Commit, /*Worker=*/0, C, traceNowNs(), 0,
                   /*Arg0=*/SeqLogBytes);
      CtxPool.push_back(std::move(SCS.Ctx));
      SeqOpen.erase(SIt);
      advanceModel(C, SeqNs, ParNs, CommitBytes, CheckWords, TokenBytes);
      // Journal only at full retirement — after BOTH halves committed.
      // Appending earlier, while the sequential half can still fail
      // (limit breach, plan violation), would duplicate the chunk: the
      // engine would re-run it and a restart would also replay it.
      if (Config.Journal)
        Config.Journal->appendCommit(C, First, Last);
      faultParentKillPoint(); // crash-restart: parent dies at commit
      Result.CommitOrder.push_back(C);
      Arrived.erase(It);
      ++Frontier;
      FaultCounts.erase(C);
      LastProgressNs = nowNs();
    }
  };

  auto crashExit = [&](RunStatus Status, const std::string &Detail) {
    killAllWorkers();
    rollbackOpenSeq();
    Result.Status = Status;
    Result.Detail = Detail;
    finishStats();
    return Result;
  };

  ::signal(SIGPIPE, SIG_IGN);
  ensureShutdownSupervisorInstalled();
  if (!forkAllWorkers()) {
    // First generation could not even fork; chunkFault already charged it.
    if (!Crashed) {
      Crashed = true;
      Result.FailedChunk = Frontier;
      CrashDetail = "stage replica fork failed";
    }
    return crashExit(RunStatus::Crash, CrashDetail);
  }

  while (Frontier != NumChunks) {
    if (shutdownRequested()) {
      // Graceful wind-down: crashExit SIGKILLs and reaps every replica and
      // rolls open sequential halves back, so memory is committed state
      // and nothing is orphaned; the partial result is valid as-is.
      if (Sink.events())
        Sink.event(TraceEventKind::Interrupt, /*Worker=*/0, /*Chunk=*/-1,
                   traceNowNs(), 0,
                   /*Arg0=*/static_cast<uint64_t>(Frontier));
      return crashExit(
          RunStatus::Interrupted,
          strprintf("interrupted by shutdown request (signal %d) with %lld "
                    "of %lld chunks retired",
                    shutdownSignal(), static_cast<long long>(Frontier),
                    static_cast<long long>(NumChunks)));
    }
    if (Crashed)
      return crashExit(RunStatus::Crash, CrashDetail);
    if (RestartPending) {
      restartWorld();
      if (Crashed)
        return crashExit(RunStatus::Crash, CrashDetail);
      if (RestartPending) {
        ::poll(nullptr, 0, 1); // transient fork failure: back off, retry
        continue;
      }
    }

    // Run the sequential lane ahead of the frontier: each half produces the
    // tokens its replica half will consume.
    while (!Crashed && NextSeq != NumChunks && NextSeq - Frontier < LeadMax) {
      execSeqChunk(NextSeq);
      if (Crashed || RestartPending)
        break;
      ++NextSeq;
    }
    if (Crashed || RestartPending)
      continue;

    // Feed free replicas the chunks whose sequential half ran (NextSeq is
    // at most LeadMax ahead of the frontier). A ready chunk with no free
    // replica is the backpressure stall the StageStalled counter records.
    while (NextDispatch < NextSeq && !Crashed && !RestartPending) {
      int FreeW = -1;
      for (unsigned W = 0; W != NumPar; ++W)
        if (Workers[W].Pid > 0 && Workers[W].Chunk < 0) {
          FreeW = static_cast<int>(W);
          break;
        }
      if (FreeW < 0) {
        if (LastStallChunk != NextDispatch) {
          LastStallChunk = NextDispatch;
          ++Result.Stats.StageStalled;
          if (Sink.events())
            Sink.event(TraceEventKind::StageStall, /*Worker=*/0,
                       NextDispatch, traceNowNs(), 0,
                       /*Arg0=*/static_cast<uint64_t>(NextDispatch -
                                                      Frontier));
        }
        break;
      }
      dispatchChunk(static_cast<unsigned>(FreeW), NextDispatch);
      if (Crashed || RestartPending)
        break;
      ++NextDispatch;
    }
    if (Crashed || RestartPending)
      continue;

    retireFrontier();
    if (Crashed || RestartPending || Frontier == NumChunks)
      continue;

    // Wait for replica doorbells. Every live replica is polled — an idle
    // one can still die and must be noticed before the next dispatch.
    std::vector<pollfd> Fds;
    std::vector<unsigned> FdWorkers;
    unsigned BusyReplicas = 0;
    for (unsigned W = 0; W != NumPar; ++W) {
      if (Workers[W].Pid <= 0)
        continue;
      Fds.push_back({Workers[W].BellR, POLLIN, 0});
      FdWorkers.push_back(W);
      BusyReplicas += Workers[W].Chunk >= 0 ? 1 : 0;
    }
    if (BusyReplicas == 0) {
      // Nothing in flight: the idle sleep is a dispatch stall.
      const uint64_t SleepT0 = Sink.events() ? traceNowNs() : 0;
      ::poll(nullptr, 0, 1);
      if (Sink.events())
        Sink.event(TraceEventKind::PollWake, /*Worker=*/0, /*Chunk=*/-1,
                   SleepT0, traceNowNs() - SleepT0);
    } else {
      const int PollTimeoutMs = DeadlineNs == 0 ? -1 : 100;
      const uint64_t PollT0 = Sink.events() ? traceNowNs() : 0;
      int Ready;
      do {
        Ready = ::poll(Fds.data(), Fds.size(), PollTimeoutMs);
      } while (Ready < 0 && errno == EINTR);
      if (Sink.events() && Ready >= 0)
        Sink.event(TraceEventKind::PollWake, /*Worker=*/0, /*Chunk=*/-1,
                   PollT0, traceNowNs() - PollT0,
                   /*Arg0=*/static_cast<uint64_t>(Ready),
                   /*Arg1=*/BusyReplicas);
      if (Ready < 0)
        return crashExit(RunStatus::Crash,
                         "poll() failed in stage-pipeline executor");
      for (size_t F = 0; F != Fds.size(); ++F) {
        if (!(Fds[F].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        const unsigned W = FdWorkers[F];
        StageWorker &SW = Workers[W];
        uint8_t Bells[256];
        ssize_t NRead;
        do {
          NRead = ::read(SW.BellR, Bells, sizeof(Bells));
        } while (NRead < 0 && errno == EINTR);
        if (NRead <= 0) {
          workerDied(W);
          killWorker(W);
          continue;
        }
        LastProgressNs = nowNs();
        const uint8_t Tag =
            static_cast<uint8_t>(Generation) & RingDoorbellTagMask;
        // Doorbells of an earlier generation are stale; any current one
        // means the ring has bytes.
        for (ssize_t B = 0; B != NRead; ++B)
          if ((Bells[B] & RingDoorbellTagMask) == Tag) {
            SW.OutRing->drainInto(SW.Buf);
            break;
          }
        if (SW.Chunk >= 0) {
          SW.OutRing->drainInto(SW.Buf);
          completeWorker(W);
        }
        if (Crashed)
          return crashExit(RunStatus::Crash, CrashDetail);
      }
      retireFrontier();
      if (Crashed)
        return crashExit(RunStatus::Crash, CrashDetail);
    }

    if (DeadlineNs != 0) {
      const uint64_t SimNow = static_cast<uint64_t>(RetireClockNs);
      if (AccumulatedSimNs + SimNow > DeadlineNs)
        return crashExit(
            RunStatus::Timeout,
            "staged execution time exceeded the 10x-sequential deadline");
      const uint64_t Now = nowNs();
      const uint64_t Backstop = std::max(DeadlineNs, StageStallFloorNs);
      if (Now - LastProgressNs > Backstop)
        return crashExit(RunStatus::Timeout,
                         "stage pipeline made no progress within the "
                         "deadline (hung replica)");
    }
  }

  assert(SeqOpen.empty() && "open sequential halves outlived the run");
  killAllWorkers();
  finishStats();
  return Result;
}
