//===- runtime/TxnContext.cpp ---------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/TxnContext.h"

#include "support/Error.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

using namespace alter;

TxnContext::TxnContext(ContextMode Mode, const RuntimeParams *Params,
                       const LoopSpec *Spec, AlterAllocator *Allocator,
                       unsigned Worker, TxnLimits Limits)
    : Mode(Mode), Params(Params), Spec(Spec), Allocator(Allocator),
      Worker(Worker), Limits(Limits) {
  if (Mode == ContextMode::Transactional) {
    assert(Params && "transactional contexts need runtime parameters");
    TrackReads = Params->tracksReads();
    TrackWrites = Params->tracksWrites();
  }
  if (Spec) {
    RedSlots.resize(Spec->Reductions.size());
    if (Params) {
      for (const EnabledReduction &R : Params->Reductions) {
        assert(R.BindingIndex < RedSlots.size() &&
               "enabled reduction index out of range");
        RedSlots[R.BindingIndex].Active =
            Mode == ContextMode::Transactional;
        RedSlots[R.BindingIndex].Op = R.Op;
        RedSlots[R.BindingIndex].Custom = R.Custom;
      }
    }
  }
  if (Allocator)
    TxnArenaMark = Allocator->mark(Worker);
}

//===----------------------------------------------------------------------===
// Byte-level access paths
//===----------------------------------------------------------------------===

void TxnContext::loadBytes(const void *Addr, void *Out, size_t Size) {
  BytesRead += Size;
  switch (Mode) {
  case ContextMode::Passthrough:
    std::memcpy(Out, Addr, Size);
    return;
  case ContextMode::DepProbe:
    CurReads.insertRange(Addr, Size);
    std::memcpy(Out, Addr, Size);
    return;
  case ContextMode::Transactional:
    if (TrackReads) {
      ++InstrReadCalls;
      Reads.insertRange(Addr, Size);
      checkSetLimits();
    }
    std::memcpy(Out, Addr, Size);
    return;
  }
  ALTER_UNREACHABLE("covered switch");
}

void TxnContext::storeBytes(void *Addr, const void *Src, size_t Size) {
  BytesWritten += Size;
  switch (Mode) {
  case ContextMode::Passthrough:
    std::memcpy(Addr, Src, Size);
    return;
  case ContextMode::DepProbe:
    CurWrites.insertRange(Addr, Size);
    std::memcpy(Addr, Src, Size);
    return;
  case ContextMode::Transactional:
    if (TrackWrites) {
      ++InstrWriteCalls;
      Writes.insertRange(Addr, Size);
      checkSetLimits();
    }
    if (BufferedWrites) {
      Log.record(Addr, Src, Size);
      return;
    }
    Log.recordUndo(Addr, Size);
    std::memcpy(Addr, Src, Size);
    return;
  }
  ALTER_UNREACHABLE("covered switch");
}

void TxnContext::storeInitBytes(void *Addr, const void *Src, size_t Size) {
  BytesWritten += Size;
  switch (Mode) {
  case ContextMode::Passthrough:
  case ContextMode::DepProbe:
    // Fresh data carries no cross-iteration dependence; write directly.
    std::memcpy(Addr, Src, Size);
    return;
  case ContextMode::Transactional:
    if (BufferedWrites) {
      Log.record(Addr, Src, Size);
      return;
    }
    // Undo-logged (isolation) but untracked (fresh data).
    Log.recordUndo(Addr, Size);
    std::memcpy(Addr, Src, Size);
    return;
  }
  ALTER_UNREACHABLE("covered switch");
}

void TxnContext::readRangeBytes(const void *Addr, void *Out, size_t Size) {
  BytesRead += Size;
  switch (Mode) {
  case ContextMode::Passthrough:
    std::memcpy(Out, Addr, Size);
    return;
  case ContextMode::DepProbe:
    CurReads.insertRange(Addr, Size);
    std::memcpy(Out, Addr, Size);
    return;
  case ContextMode::Transactional:
    if (TrackReads) {
      // The whole range counts as one instrumentation call (§4.1's
      // induction-indexed array optimization).
      ++InstrReadCalls;
      Reads.insertRange(Addr, Size);
      checkSetLimits();
    }
    std::memcpy(Out, Addr, Size);
    if (BufferedWrites)
      Log.overlayRange(Addr, Size, Out);
    return;
  }
  ALTER_UNREACHABLE("covered switch");
}

void TxnContext::writeRangeBytes(void *Addr, const void *Src, size_t Size) {
  BytesWritten += Size;
  switch (Mode) {
  case ContextMode::Passthrough:
    std::memcpy(Addr, Src, Size);
    return;
  case ContextMode::DepProbe:
    CurWrites.insertRange(Addr, Size);
    std::memcpy(Addr, Src, Size);
    return;
  case ContextMode::Transactional:
    if (TrackWrites) {
      ++InstrWriteCalls;
      Writes.insertRange(Addr, Size);
      checkSetLimits();
    }
    if (BufferedWrites) {
      Log.record(Addr, Src, Size);
      return;
    }
    Log.recordUndo(Addr, Size);
    std::memcpy(Addr, Src, Size);
    return;
  }
  ALTER_UNREACHABLE("covered switch");
}

void TxnContext::instrumentRead(const void *Addr, size_t Size) {
  switch (Mode) {
  case ContextMode::Passthrough:
    return;
  case ContextMode::DepProbe:
    CurReads.insertRange(Addr, Size);
    return;
  case ContextMode::Transactional:
    if (TrackReads) {
      ++InstrReadCalls;
      Reads.insertRange(Addr, Size);
      checkSetLimits();
    }
    return;
  }
  ALTER_UNREACHABLE("covered switch");
}

void *TxnContext::acquireObject(void *Addr, size_t Size) {
  switch (Mode) {
  case ContextMode::Passthrough:
    return Addr;
  case ContextMode::DepProbe:
    CurReads.insertRange(Addr, Size);
    CurWrites.insertRange(Addr, Size);
    return Addr;
  case ContextMode::Transactional:
    if (TrackReads) {
      ++InstrReadCalls;
      Reads.insertRange(Addr, Size);
    }
    if (TrackWrites) {
      ++InstrWriteCalls;
      Writes.insertRange(Addr, Size);
    }
    checkSetLimits();
    BytesRead += Size;
    BytesWritten += Size;
    if (!BufferedWrites) {
      Log.recordUndo(Addr, Size);
      return Addr;
    }
    // Committed memory must stay untouched: hand out a private copy of the
    // transaction's view of the object (re-acquiring returns the same one).
    for (size_t I = 0; I != NumAcquired; ++I)
      if (Acquired[I].Addr == Addr && Acquired[I].Size == Size)
        return Acquired[I].Bytes.get();
    if (NumAcquired == Acquired.size())
      Acquired.emplace_back();
    AcquiredCopy &Copy = Acquired[NumAcquired++];
    if (Copy.Capacity < Size) {
      Copy.Bytes = std::make_unique_for_overwrite<std::byte[]>(Size);
      Copy.Capacity = Size;
    }
    Copy.Addr = Addr;
    Copy.Size = Size;
    std::memcpy(Copy.Bytes.get(), Addr, Size);
    Log.overlayRange(Addr, Size, Copy.Bytes.get());
    return Copy.Bytes.get();
  }
  ALTER_UNREACHABLE("covered switch");
}

void TxnContext::growScratch(size_t Bytes) {
  Scratch = std::make_unique_for_overwrite<std::byte[]>(Bytes);
  ScratchBytes = Bytes;
}

void TxnContext::logAcquiredObjects() {
  for (size_t I = 0; I != NumAcquired; ++I)
    Log.record(Acquired[I].Addr, Acquired[I].Bytes.get(), Acquired[I].Size);
  NumAcquired = 0;
}

void TxnContext::checkSetLimits() {
  if (Limits.MaxAccessSetBytes == 0 || LimitExceeded)
    return;
  const auto Footprint = [this] {
    return Reads.memoryFootprintBytes() + Writes.memoryFootprintBytes();
  };
  if (Footprint() <= Limits.MaxAccessSetBytes)
    return;
  // Runs appended out of order may repeat words: count them exactly before
  // declaring a crash.
  Reads.normalize();
  Writes.normalize();
  if (Footprint() > Limits.MaxAccessSetBytes)
    LimitExceeded = true;
}

//===----------------------------------------------------------------------===
// Reduction slots
//===----------------------------------------------------------------------===

void TxnContext::redUpdate(unsigned Slot, ReduceOp SourceOp,
                           const RedValue &Operand) {
  assert(Spec && Slot < RedSlots.size() && "reduction slot out of range");
  const ReductionBinding &B = Spec->Reductions[Slot];
  assert(B.Kind == Operand.Kind && "slot kind mismatch");
  RedSlotState &S = RedSlots[Slot];
  if (!S.Active) {
    // Disabled binding: execute the original read-modify-write with
    // ordinary instrumented accesses, i.e. the un-annotated program.
    RedValue Current;
    if (B.Kind == ScalarKind::F64) {
      Current = RedValue::ofF64(load(static_cast<const double *>(B.Addr)));
      const RedValue Updated = applyReduceOp(SourceOp, Current, Operand);
      store(static_cast<double *>(B.Addr), Updated.F);
    } else {
      Current = RedValue::ofI64(load(static_cast<const int64_t *>(B.Addr)));
      const RedValue Updated = applyReduceOp(SourceOp, Current, Operand);
      store(static_cast<int64_t *>(B.Addr), Updated.I);
    }
    return;
  }
  // Enabled binding: fold the operand with the ANNOTATED operator. The
  // source operator is intentionally ignored — the annotation asserts the
  // access is an Op-update, and acting on that assertion is what makes a
  // wrong annotation produce the paper's "valid but slower" or "invalid
  // output" behaviors rather than a crash.
  if (!S.Touched) {
    S.Acc = S.Custom.Combine ? S.Custom.Identity
                             : reduceIdentity(S.Op, B.Kind);
    S.Touched = true;
  }
  S.Acc = S.combine(S.Acc, Operand);
}

void TxnContext::redUpdateF(unsigned Slot, ReduceOp SourceOp,
                            double Operand) {
  redUpdate(Slot, SourceOp, RedValue::ofF64(Operand));
}

void TxnContext::redUpdateI(unsigned Slot, ReduceOp SourceOp,
                            int64_t Operand) {
  redUpdate(Slot, SourceOp, RedValue::ofI64(Operand));
}

//===----------------------------------------------------------------------===
// Allocation
//===----------------------------------------------------------------------===

void *TxnContext::allocate(size_t Size) {
  // Invariant violation, not a resource failure: a workload allocating
  // through a context that was built without an allocator is a programming
  // error on the caller's side — no environment can cause it at runtime.
  if (!Allocator)
    fatalError("TxnContext::allocate without an AlterAllocator");
  return Allocator->allocate(Worker, Size);
}

void TxnContext::deallocate(void *Ptr, size_t Size) {
  // Invariant violation, same as allocate() above.
  if (!Allocator)
    fatalError("TxnContext::deallocate without an AlterAllocator");
  if (Mode == ContextMode::Transactional) {
    DeferredFrees.emplace_back(Ptr, Size);
    return;
  }
  Allocator->deallocate(Worker, Ptr, Size);
}

//===----------------------------------------------------------------------===
// Executor protocol
//===----------------------------------------------------------------------===

void TxnContext::beginTxn() {
  Log.clear();
  Reads.clear();
  Writes.clear();
  DeferredFrees.clear();
  LimitExceeded = false;
  MemTrafficBytes = 0;
  InstrReadCalls = 0;
  InstrWriteCalls = 0;
  BytesRead = 0;
  BytesWritten = 0;
  NumAcquired = 0;
  for (RedSlotState &S : RedSlots) {
    S.Touched = false;
    S.Acc = RedValue();
  }
  if (Allocator)
    TxnArenaMark = Allocator->mark(Worker);
}

void TxnContext::suspendTxn() {
  assert(Mode == ContextMode::Transactional &&
         "suspendTxn is only meaningful transactionally");
  Reads.normalize();
  Writes.normalize();
  if (BufferedWrites) {
    // Memory was never touched; the log already holds redo data.
    logAcquiredObjects();
    return;
  }
  Log.swapWithMemory();
}

void TxnContext::captureRedo() {
  assert(Mode == ContextMode::Transactional &&
         "captureRedo is only meaningful transactionally");
  Reads.normalize();
  Writes.normalize();
  if (BufferedWrites) {
    // The buffered log IS the redo log.
    logAcquiredObjects();
    return;
  }
  Log.captureRedo();
}

void TxnContext::commitTxn() {
  assert(Mode == ContextMode::Transactional &&
         "commitTxn is only meaningful transactionally");
  Log.apply();
  for (unsigned I = 0; I != RedSlots.size(); ++I) {
    const RedSlotState &S = RedSlots[I];
    if (S.Active && S.Touched)
      commitReductionSlot(Spec->Reductions[I], S);
  }
  if (Allocator)
    for (auto [Ptr, Size] : DeferredFrees)
      Allocator->deallocate(Worker, Ptr, Size);
  DeferredFrees.clear();
}

void TxnContext::abortTxn() {
  assert(Mode == ContextMode::Transactional &&
         "abortTxn is only meaningful transactionally");
  // Buffered writes are discarded; bump allocations are rolled back;
  // deferred frees are dropped (the objects stay live).
  if (Allocator)
    Allocator->rollback(Worker, TxnArenaMark);
}

void TxnContext::commitReductionSlot(const ReductionBinding &Binding,
                                     const RedSlotState &Slot) {
  const RedValue Committed = loadScalar(Binding.Kind, Binding.Addr);
  const RedValue Merged = Slot.combine(Committed, Slot.Acc);
  storeScalar(Binding.Kind, Binding.Addr, Merged);
}

void TxnContext::finishProbeIteration() {
  assert(Mode == ContextMode::DepProbe &&
         "finishProbeIteration requires DepProbe mode");
  // A history stops growing once every check that reads it has fired, and
  // the reads go unread once the RAW check has fired and their history
  // has stopped.
  if (!SawRaw || !SawWar) {
    CurReads.normalize();
    if (!SawRaw && PriorWrites.intersects(CurReads))
      SawRaw = true;
  }
  CurWrites.normalize();
  if (!SawWaw && PriorWrites.intersects(CurWrites))
    SawWaw = true;
  if (!SawWar && PriorReads.intersects(CurWrites))
    SawWar = true;
  if (!SawWar)
    PriorReads.insert(CurReads);
  if (!SawRaw || !SawWaw)
    PriorWrites.insert(CurWrites);
  CurReads.clear();
  CurWrites.clear();
}
