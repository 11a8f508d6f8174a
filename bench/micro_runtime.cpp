//===- bench/micro_runtime.cpp - Runtime micro-benchmarks -----------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the runtime's hot paths and the
/// ablations DESIGN.md §6 calls out. The headline ablation: the per-access
/// cost of StaleReads (write tracking only) vs OutOfOrder (read + write
/// tracking) vs range instrumentation — the mechanism behind the paper's
/// §7.2 performance ordering.
///
//===----------------------------------------------------------------------===//

#include "memory/AccessSet.h"
#include "memory/AlterAllocator.h"
#include "memory/WriteLog.h"
#include "runtime/Annotation.h"
#include "runtime/CommitRing.h"
#include "runtime/ConflictDetector.h"
#include "runtime/LockstepExecutor.h"
#include "runtime/PipelineExecutor.h"
#include "runtime/TxnContext.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <cerrno>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace alter;

//===----------------------------------------------------------------------===
// AccessSet
//===----------------------------------------------------------------------===

static void BM_AccessSetInsert(benchmark::State &State) {
  std::vector<double> Data(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    AccessSet Set;
    for (double &D : Data)
      Set.insert(&D);
    benchmark::DoNotOptimize(Set.sizeWords());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_AccessSetInsert)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_AccessSetInsertRange(benchmark::State &State) {
  std::vector<double> Data(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    AccessSet Set;
    Set.insertRange(Data.data(), Data.size() * sizeof(double));
    benchmark::DoNotOptimize(Set.sizeWords());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_AccessSetInsertRange)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_AccessSetIntersect(benchmark::State &State) {
  std::vector<double> A(1024), B(1024);
  AccessSet SetA, SetB;
  for (double &D : A)
    SetA.insert(&D);
  for (double &D : B)
    SetB.insert(&D);
  for (auto _ : State)
    benchmark::DoNotOptimize(SetA.intersects(SetB));
}
BENCHMARK(BM_AccessSetIntersect);

//===----------------------------------------------------------------------===
// WriteLog
//===----------------------------------------------------------------------===

static void BM_WriteLogRecord(benchmark::State &State) {
  std::vector<double> Data(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    WriteLog Log;
    for (size_t I = 0; I != Data.size(); ++I) {
      const double V = static_cast<double>(I);
      Log.record(&Data[I], &V, sizeof(V));
    }
    benchmark::DoNotOptimize(Log.numEntries());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_WriteLogRecord)->Arg(64)->Arg(1024);

static void BM_WriteLogLookupHit(benchmark::State &State) {
  std::vector<double> Data(1024);
  WriteLog Log;
  for (size_t I = 0; I != Data.size(); ++I) {
    const double V = static_cast<double>(I);
    Log.record(&Data[I], &V, sizeof(V));
  }
  size_t I = 0;
  for (auto _ : State) {
    double Out;
    benchmark::DoNotOptimize(Log.lookup(&Data[I % 1024], &Out, sizeof(Out)));
    ++I;
  }
}
BENCHMARK(BM_WriteLogLookupHit);

static void BM_WriteLogLookupMissEmpty(benchmark::State &State) {
  WriteLog Log;
  double Target = 0;
  for (auto _ : State) {
    double Out;
    benchmark::DoNotOptimize(Log.lookup(&Target, &Out, sizeof(Out)));
  }
}
BENCHMARK(BM_WriteLogLookupMissEmpty);

//===----------------------------------------------------------------------===
// AlterAllocator
//===----------------------------------------------------------------------===

static void BM_AllocatorBump(benchmark::State &State) {
  AlterAllocator Alloc(1, size_t(256) << 20);
  const ArenaMark Mark = Alloc.mark(0);
  for (auto _ : State) {
    benchmark::DoNotOptimize(Alloc.allocate(0, 48));
    if (Alloc.bumpOffset(0) > (size_t(200) << 20))
      Alloc.rollback(0, Mark);
  }
}
BENCHMARK(BM_AllocatorBump);

static void BM_AllocatorFreeListCycle(benchmark::State &State) {
  AlterAllocator Alloc(1, 1 << 20);
  for (auto _ : State) {
    void *P = Alloc.allocate(0, 48);
    Alloc.deallocate(0, P, 48);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_AllocatorFreeListCycle);

//===----------------------------------------------------------------------===
// Instrumented access ablation: StaleReads vs OutOfOrder vs range
//===----------------------------------------------------------------------===

namespace {

RuntimeParams paramsFor(ConflictPolicy Policy) {
  RuntimeParams Params;
  Params.Conflict = Policy;
  return Params;
}

} // namespace

static void BM_LoadTrackedRaw(benchmark::State &State) {
  LoopSpec Spec;
  const RuntimeParams Params = paramsFor(ConflictPolicy::RAW);
  TxnContext Ctx(ContextMode::Transactional, &Params, &Spec, nullptr, 1);
  Ctx.beginTxn();
  std::vector<double> Data(4096);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Ctx.load(&Data[I % 4096]));
    ++I;
  }
}
BENCHMARK(BM_LoadTrackedRaw);

static void BM_LoadUntrackedWaw(benchmark::State &State) {
  LoopSpec Spec;
  const RuntimeParams Params = paramsFor(ConflictPolicy::WAW);
  TxnContext Ctx(ContextMode::Transactional, &Params, &Spec, nullptr, 1);
  Ctx.beginTxn();
  std::vector<double> Data(4096);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Ctx.load(&Data[I % 4096]));
    ++I;
  }
}
BENCHMARK(BM_LoadUntrackedWaw);

static void BM_ReadRangeVsElementwise(benchmark::State &State) {
  LoopSpec Spec;
  const RuntimeParams Params = paramsFor(ConflictPolicy::RAW);
  std::vector<double> Data(1024), Out(1024);
  const bool UseRange = State.range(0) != 0;
  for (auto _ : State) {
    TxnContext Ctx(ContextMode::Transactional, &Params, &Spec, nullptr, 1);
    Ctx.beginTxn();
    if (UseRange) {
      Ctx.readRange(Data.data(), Data.size(), Out.data());
    } else {
      for (size_t I = 0; I != Data.size(); ++I)
        Out[I] = Ctx.load(&Data[I]);
    }
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * 1024);
}
BENCHMARK(BM_ReadRangeVsElementwise)
    ->Arg(0)  // element-wise (the FFT failure mode)
    ->Arg(1); // range instrumentation (the §4.1 optimization)

static void BM_StoreBuffered(benchmark::State &State) {
  LoopSpec Spec;
  const RuntimeParams Params = paramsFor(ConflictPolicy::WAW);
  TxnContext Ctx(ContextMode::Transactional, &Params, &Spec, nullptr, 1);
  Ctx.beginTxn();
  std::vector<double> Data(4096);
  size_t I = 0;
  for (auto _ : State) {
    Ctx.store(&Data[I % 4096], 1.0);
    ++I;
  }
}
BENCHMARK(BM_StoreBuffered);

//===----------------------------------------------------------------------===
// Conflict detection and end-to-end rounds
//===----------------------------------------------------------------------===

static void BM_ConflictValidation(benchmark::State &State) {
  std::vector<double> Mine(static_cast<size_t>(State.range(0)));
  std::vector<double> Theirs(512);
  AccessSet Reads, Writes, Committed;
  for (double &D : Mine)
    Reads.insert(&D);
  for (double &D : Theirs)
    Committed.insert(&D);
  ConflictDetector Detector(ConflictPolicy::RAW);
  Detector.recordCommit(Committed);
  for (auto _ : State)
    benchmark::DoNotOptimize(Detector.hasConflict(Reads, Writes));
}
BENCHMARK(BM_ConflictValidation)->Arg(64)->Arg(1024);

static void BM_RoundRetire(benchmark::State &State) {
  // One floyd-288 round at P=3 under StaleReads (WAW): three chunks of 16
  // rows, each writing its diagonal cells and the cells a relaxation
  // improves, about 126 words per chunk. The retire validates each chunk
  // against the earlier ones and records it.
  constexpr size_t N = 288, RowsPerChunk = 16;
  std::vector<double> Path(N * N);
  Xoshiro256StarStar Rng(288);
  AccessSet Writes[3];
  for (size_t C = 0; C != 3; ++C) {
    for (size_t Row = C * RowsPerChunk; Row != (C + 1) * RowsPerChunk; ++Row) {
      Writes[C].insert(&Path[Row * N + Row]);
      for (size_t J = 0; J < N; J += 1 + Rng.nextBounded(84))
        Writes[C].insert(&Path[Row * N + J]);
    }
    Writes[C].normalize(); // as the worker's suspendTxn leaves it
  }
  const AccessSet NoReads;
  ConflictDetector Detector(ConflictPolicy::WAW);
  for (auto _ : State) {
    Detector.resetRound();
    for (const AccessSet &W : Writes) {
      benchmark::DoNotOptimize(Detector.hasConflict(NoReads, W));
      Detector.recordCommit(W);
    }
  }
  State.counters["words_per_chunk"] =
      static_cast<double>(Writes[0].sizeWords() + Writes[1].sizeWords() +
                          Writes[2].sizeWords()) /
      3;
}
BENCHMARK(BM_RoundRetire);

static void BM_LockstepRoundOverhead(benchmark::State &State) {
  // An empty-body loop isolates the per-round protocol cost.
  std::vector<double> Data(256);
  LoopSpec Spec;
  Spec.NumIterations = 256;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], 1.0);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.Conflict = ConflictPolicy::WAW;
  Config.Params.ChunkFactor = 16;
  for (auto _ : State) {
    LockstepExecutor Exec(Config);
    benchmark::DoNotOptimize(Exec.run(Spec).Stats.NumRounds);
  }
}
BENCHMARK(BM_LockstepRoundOverhead);

//===----------------------------------------------------------------------===
// Commit transport: cold fork+pipe vs warm fork+ring (the BENCH_transport
// baseline — run with --benchmark_filter=Transport|ColdFork|RingPush and
// --benchmark_out=BENCH_transport.json --benchmark_out_format=json)
//===----------------------------------------------------------------------===

static void BM_ColdForkReap(benchmark::State &State) {
  // The floor the warm pool amortizes away from the parent's critical
  // path: one fork() of this full process plus the reap.
  for (auto _ : State) {
    const pid_t Pid = ::fork();
    if (Pid == 0)
      ::_exit(0);
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
      ;
    benchmark::DoNotOptimize(Status);
  }
}
BENCHMARK(BM_ColdForkReap);

static void BM_RingPushDrain(benchmark::State &State) {
  // Raw SPSC ring throughput for one commit-record-sized message,
  // producer and consumer in the same thread (no fork, no doorbell): the
  // shared-memory copy cost that replaces the kernel pipe copy.
  CommitRing Ring(CommitRing::DefaultCapacity);
  const std::vector<uint8_t> Msg(static_cast<size_t>(State.range(0)), 0x5a);
  std::vector<uint8_t> Out;
  Out.reserve(Msg.size());
  for (auto _ : State) {
    size_t Off = 0;
    while (Off != Msg.size()) {
      Off += Ring.pushSome(Msg.data() + Off, Msg.size() - Off);
      Ring.drainInto(Out);
    }
    Out.clear();
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Msg.size()));
}
BENCHMARK(BM_RingPushDrain)->Arg(1 << 10)->Arg(64 << 10)->Arg(1 << 20);

namespace {

/// End-to-end per-chunk transport cost: a disjoint loop whose bodies do a
/// few hundred ns of work, run through the pipelined fork engine, so the
/// measured time is dominated by fork + commit shipping. The per-chunk
/// commit message stays small (ChunkFactor * 8 word-keyed doubles), the
/// regime where process setup, not payload, is the cost.
void runChunkTransport(benchmark::State &State, TransportKind Transport) {
  constexpr int64_t NumIters = 96;
  constexpr size_t DoublesPerIter = 8;
  std::vector<double> Data(NumIters * DoublesPerIter);
  LoopSpec Spec;
  Spec.NumIterations = NumIters;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    const size_t Base = static_cast<size_t>(I) * DoublesPerIter;
    for (size_t K = 0; K != DoublesPerIter; ++K)
      Ctx.store(&Data[Base + K], static_cast<double>(I + 1));
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.Conflict = ConflictPolicy::WAW;
  Config.Params.ChunkFactor = State.range(0);
  Config.Transport = Transport;
  uint64_t Chunks = 0, BytesCopied = 0, Warm = 0, Cold = 0;
  for (auto _ : State) {
    PipelineExecutor Exec(Config);
    const RunResult R = Exec.run(Spec);
    if (R.Status != RunStatus::Success)
      State.SkipWithError("transport loop failed");
    Chunks += R.Stats.WarmForks + R.Stats.ColdForks;
    BytesCopied += R.Stats.WireBytesCopied;
    Warm += R.Stats.WarmForks;
    Cold += R.Stats.ColdForks;
  }
  // items/s is chunks/s; its inverse is the headline ns-per-chunk.
  State.SetItemsProcessed(static_cast<int64_t>(Chunks));
  State.counters["bytes_copied_per_chunk"] =
      Chunks ? static_cast<double>(BytesCopied) / static_cast<double>(Chunks)
             : 0.0;
  State.counters["warm_fork_rate"] =
      Chunks ? static_cast<double>(Warm) / static_cast<double>(Warm + Cold)
             : 0.0;
}

} // namespace

static void BM_TransportColdForkPipe(benchmark::State &State) {
  runChunkTransport(State, TransportKind::Pipe);
}
BENCHMARK(BM_TransportColdForkPipe)->Arg(1)->Arg(4)->Arg(16);

static void BM_TransportWarmForkRing(benchmark::State &State) {
  runChunkTransport(State, TransportKind::Ring);
}
BENCHMARK(BM_TransportWarmForkRing)->Arg(1)->Arg(4)->Arg(16);

static void BM_AnnotationParse(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(
        parseAnnotation("[StaleReads + Reduction(err, max); "
                        "Reduction(n, +)]"));
}
BENCHMARK(BM_AnnotationParse);

BENCHMARK_MAIN();
