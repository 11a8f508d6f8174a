//===- runtime/TxnContext.h - Per-transaction instrumentation ---*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TxnContext is the interface loop bodies use for every access to memory
/// that is shared across iterations. It stands in for the read/write
/// instrumentation the paper's Phoenix compiler phases insert (§4.1),
/// including the documented optimizations:
///
///  - allocation-granularity tracking (ranges insert whole word spans);
///  - range instrumentation of arrays indexed by an induction variable
///    (readRange/writeRange count as ONE instrumentation call);
///  - fresh (defined-before-use) data skips instrumentation (storeInit);
///  - iteration-local variables bypass the context entirely.
///
/// One concrete class serves three execution modes:
///
///  - Passthrough: loads/stores hit memory directly (sequential reference
///    execution).
///  - Transactional: stores buffer into a WriteLog; loads consult the log
///    then committed memory; read/write sets accumulate per the active
///    ConflictPolicy (StaleReads configurations skip read tracking — the
///    source of their §7.2 performance edge).
///  - DepProbe: direct execution that records per-iteration access sets to
///    detect loop-carried dependences (the paper's "check in join()" used
///    for Table 3's Dep column).
///
/// Reduction variables are accessed through slot handles (redUpdateF/I):
/// the body reports each update's operand and source operator. When the
/// active RuntimeParams enable a binding, operands fold into a
/// transaction-private accumulator merged at commit with the ANNOTATED
/// operator; when disabled, the original read-modify-write executes as
/// ordinary instrumented accesses — i.e. the un-annotated program.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_TXNCONTEXT_H
#define ALTER_RUNTIME_TXNCONTEXT_H

#include "memory/AccessSet.h"
#include "memory/AlterAllocator.h"
#include "memory/WriteLog.h"
#include "runtime/LoopSpec.h"
#include "runtime/ReductionOps.h"
#include "runtime/RunResult.h"
#include "runtime/RuntimeParams.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace alter {

/// Execution mode of a context (see file comment).
enum class ContextMode { Passthrough, Transactional, DepProbe };

/// Resource limits enforced during transactional execution.
struct TxnLimits {
  /// Cap on the combined memory footprint of one transaction's access sets.
  /// Exceeding it marks the transaction as crashed, modeling the paper's
  /// observation that AggloClust exhausts memory under read-set-tracking
  /// policies. Zero means unlimited.
  size_t MaxAccessSetBytes = 0;
};

/// Per-transaction instrumentation and isolation state.
class TxnContext {
public:
  /// Creates a context. \p Params may be null for Passthrough/DepProbe.
  /// \p Allocator may be null when the loop performs no allocation.
  TxnContext(ContextMode Mode, const RuntimeParams *Params,
             const LoopSpec *Spec, AlterAllocator *Allocator, unsigned Worker,
             TxnLimits Limits = TxnLimits());

  TxnContext(const TxnContext &) = delete;
  TxnContext &operator=(const TxnContext &) = delete;

  //===--------------------------------------------------------------------===
  // Scalar and range access
  //===--------------------------------------------------------------------===

  /// Instrumented load of a shared location, recorded in the read set when
  /// the policy tracks reads (untracked StaleReads reads are free, as in
  /// the paper's runtime). A transaction sees its own stores: undo-logged,
  /// they are already in memory, so the load is a raw read — the
  /// in-process analog of a child reading its COW pages; buffered (see
  /// enableBufferedWrites), they live in the write log, which the load
  /// consults before falling back to committed memory.
  template <typename T> T load(const T *Addr) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "instrumented accesses require trivially copyable types");
    T Value;
    if (Mode == ContextMode::Transactional) {
      BytesRead += sizeof(T);
      if (TrackReads) {
        ++InstrReadCalls;
        Reads.insertRange(Addr, sizeof(T));
        checkSetLimits();
      }
      if (BufferedWrites && Log.mayContain(Addr, sizeof(T)) &&
          Log.lookup(Addr, &Value, sizeof(T)))
        return Value; // read-your-own-buffered-write
      std::memcpy(&Value, Addr, sizeof(T));
      return Value;
    }
    if (Mode == ContextMode::Passthrough) {
      std::memcpy(&Value, Addr, sizeof(T));
      return Value;
    }
    loadBytes(Addr, &Value, sizeof(T)); // DepProbe
    return Value;
  }

  /// Instrumented store to a shared location, recorded in the write set
  /// when the policy tracks writes. Undo-logged, the overwritten bytes are
  /// saved and memory is written in place, and suspendTxn() restores the
  /// snapshot at transaction end; buffered (see enableBufferedWrites), the
  /// value goes only into the write log and memory is not touched.
  template <typename T> void store(T *Addr, const T &Value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "instrumented accesses require trivially copyable types");
    if (Mode == ContextMode::Transactional) {
      BytesWritten += sizeof(T);
      if (TrackWrites) {
        ++InstrWriteCalls;
        Writes.insertRange(Addr, sizeof(T));
        checkSetLimits();
      }
      if (BufferedWrites) {
        Log.record(Addr, &Value, sizeof(T));
        return;
      }
      Log.recordUndo(Addr, sizeof(T));
      std::memcpy(Addr, &Value, sizeof(T));
      return;
    }
    if (Mode == ContextMode::Passthrough) {
      std::memcpy(Addr, &Value, sizeof(T));
      return;
    }
    storeBytes(Addr, &Value, sizeof(T)); // DepProbe
  }

  /// Uninstrumented store used to initialize freshly allocated
  /// (defined-before-use) memory: undo-logged for isolation but exempt
  /// from conflict tracking (§4.1's fresh-definition optimization).
  template <typename T> void storeInit(T *Addr, const T &Value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "instrumented accesses require trivially copyable types");
    if (Mode == ContextMode::Transactional) {
      BytesWritten += sizeof(T);
      if (BufferedWrites) {
        Log.record(Addr, &Value, sizeof(T));
        return;
      }
      Log.recordUndo(Addr, sizeof(T));
      std::memcpy(Addr, &Value, sizeof(T));
      return;
    }
    storeInitBytes(Addr, &Value, sizeof(T));
  }

  /// Range load of \p Count elements (one instrumentation call), with
  /// read-your-own-writes overlay.
  template <typename T> void readRange(const T *Addr, size_t Count, T *Out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "instrumented accesses require trivially copyable types");
    readRangeBytes(Addr, Out, Count * sizeof(T));
  }

  /// Range store of \p Count elements (one instrumentation call).
  template <typename T>
  void writeRange(T *Addr, const T *Src, size_t Count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "instrumented accesses require trivially copyable types");
    writeRangeBytes(Addr, Src, Count * sizeof(T));
  }

  /// Uninstrumented load that still sees this transaction's own writes:
  /// for locations whose read the body has already instrumented (e.g.
  /// through instrumentRead). Undo-logged contexts write in place, so this
  /// is a raw read; a buffered context consults its write log first, like
  /// load().
  template <typename T> T peek(const T *Addr) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "instrumented accesses require trivially copyable types");
    T Value;
    if (BufferedWrites && Log.mayContain(Addr, sizeof(T)) &&
        Log.lookup(Addr, &Value, sizeof(T)))
      return Value;
    std::memcpy(&Value, Addr, sizeof(T));
    return Value;
  }

  /// Adds [Addr, Addr+Size) to the read set without moving data. Exposed
  /// for collection classes that manage their own storage.
  void instrumentRead(const void *Addr, size_t Size);

  /// Allocation-granularity access (§4.1): instruments the whole object
  /// [Addr, Addr+Size) as read AND written and returns where the
  /// transaction may then access it through raw pointers — one
  /// instrumentation for any number of accesses, the exact cost profile of
  /// the paper's object-level instrumentation. An undo-logged context
  /// returns \p Addr itself (the object is undo-logged and written in
  /// place); a buffered context returns a worker-private copy, the thread
  /// analog of a copy-on-write page, and logs the copy's final bytes at
  /// suspend. Only sound when the object belongs to this iteration (e.g. a
  /// row transform): the whole range joins the write set.
  void *acquireObject(void *Addr, size_t Size);

  /// Worker-private scratch of \p Count elements for a body's
  /// iteration-local buffers (a snapshot of a row, a stencil
  /// neighborhood). The buffer belongs to this context and outlives its
  /// transactions, like the write log, so a body keeps no mutable scratch
  /// in shared workload state and concurrent workers never share one. It is
  /// not instrumented; its contents are unspecified on return, and the
  /// pointer is valid until the next scratch() call.
  template <typename T> T *scratch(size_t Count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "scratch holds plain data at the default new alignment");
    if (Count * sizeof(T) > ScratchBytes)
      growScratch(Count * sizeof(T));
    return reinterpret_cast<T *>(Scratch.get());
  }

  /// Reports \p Bytes of genuine DRAM traffic for this iteration (data the
  /// body streams without reuse: a dense matrix row, a CSR row, a stencil
  /// neighborhood). The cost model charges the shared-bandwidth ceiling on
  /// this figure — cache-resident traffic (re-read snapshot rows, cluster
  /// centers) should NOT be reported. This plays the role of the memory
  /// system in the paper's testbed, where GSdense/GSsparse plateau beyond
  /// 4 cores (§7.2).
  void noteMemoryTraffic(uint64_t Bytes) { MemTrafficBytes += Bytes; }

  /// Total genuine DRAM traffic reported this transaction.
  uint64_t memTrafficBytes() const { return MemTrafficBytes; }

  //===--------------------------------------------------------------------===
  // Reduction slots
  //===--------------------------------------------------------------------===

  /// Reports one reduction update whose source form is
  /// `x = x <SourceOp> Operand` (the annotation language requires every
  /// access to a reduction variable to be such an update, §3). When the
  /// binding is enabled by the runtime parameters, only the operand is
  /// accumulated — with the ANNOTATED operator, which is how a mismatched
  /// annotation (e.g. + on SG3D's max updates) turns the committed value
  /// into Σ of the operands, exactly the paper's Σᵢ(errorᵢ) observation.
  /// When the binding is disabled, the original read-modify-write executes
  /// through the instrumented access path, preserving the un-annotated
  /// program's dependences.
  void redUpdateF(unsigned Slot, ReduceOp SourceOp, double Operand);

  /// Integer variant of redUpdateF.
  void redUpdateI(unsigned Slot, ReduceOp SourceOp, int64_t Operand);

  //===--------------------------------------------------------------------===
  // Memory management (the ALTER allocator, §4.1)
  //===--------------------------------------------------------------------===

  /// Allocates \p Size bytes from this worker's arena. In transactional
  /// mode the allocation is rolled back if the transaction aborts.
  void *allocate(size_t Size);

  /// Frees \p Ptr. In transactional mode the free is deferred to commit so
  /// an abort cannot free live data.
  void deallocate(void *Ptr, size_t Size);

  //===--------------------------------------------------------------------===
  // Identity
  //===--------------------------------------------------------------------===

  /// Execution mode.
  ContextMode mode() const { return Mode; }

  //===--------------------------------------------------------------------===
  // Executor-facing protocol (not for loop bodies)
  //===--------------------------------------------------------------------===

  /// Drops read/write conflict-set tracking for the rest of this context's
  /// life; undo logging, commit, and abort stay intact. The stage
  /// pipeline's sequential lane runs this way: it executes in iteration
  /// order in one process and nothing is validated against it, so the
  /// stage plan's disjointness contract (tokens are the only cross-stage
  /// flow) stands in for the conflict check — DSWP's sequential stage
  /// needs no speculation support.
  void disableConflictTracking() { TrackReads = TrackWrites = false; }

  /// Routes every subsequent write into the log as a buffered redo value
  /// instead of undo-log-then-write-in-place; loads get read-your-own-writes
  /// through the log overlay. Committed memory is never touched before
  /// commitTxn, so the threaded lock-step engine's workers run this way
  /// side by side, and so do fork-shipped replicas (the stage pipeline's
  /// parallel-stage children), whose writes exist only to be serialized
  /// onto the commit wire: buffering skips the undo snapshot, the
  /// page-dirtying store (the child's COW image stays clean), and the whole
  /// captureRedo pass — the log already IS the redo log. acquireObject
  /// hands out private copies here.
  void enableBufferedWrites() { BufferedWrites = true; }

  /// Resets all transactional state for a fresh transaction.
  void beginTxn();

  /// Ends the execution phase: restores memory to the committed snapshot
  /// (the transaction's writes unwind) while the log flips to redo data.
  /// A buffered context never touched memory; it only logs its acquired
  /// objects' private copies.
  void suspendTxn();

  /// Fork-join child variant of suspendTxn: the log captures the final
  /// values but memory is left dirty (the child process exits anyway).
  void captureRedo();

  /// Applies the write log, reduction merges, and deferred frees to the
  /// committed memory. Only meaningful in Transactional mode. The
  /// transaction must have been suspended (or redo-captured) first.
  void commitTxn();

  /// Discards buffered state after a failed validation.
  void abortTxn();

  /// DepProbe: marks the end of iteration processing, folding the current
  /// iteration's sets into the cross-iteration history.
  void finishProbeIteration();

  /// DepProbe: true if any loop-carried RAW/WAW/WAR dependence was seen.
  bool sawLoopCarriedDependence() const {
    return SawRaw || SawWaw || SawWar;
  }
  bool sawLoopCarriedRaw() const { return SawRaw; }
  bool sawLoopCarriedWaw() const { return SawWaw; }
  bool sawLoopCarriedWar() const { return SawWar; }

  /// True if a resource limit tripped during this transaction.
  bool limitExceeded() const { return LimitExceeded; }

  /// Read/write sets of the current transaction.
  const AccessSet &readSet() const { return Reads; }
  const AccessSet &writeSet() const { return Writes; }

  /// Buffered writes of the current transaction.
  const WriteLog &writeLog() const { return Log; }
  WriteLog &writeLog() { return Log; }

  /// Per-reduction-slot private state, exposed for cross-process commits.
  struct RedSlotState {
    bool Active = false;  ///< enabled by the RuntimeParams
    bool Touched = false; ///< accessed during this transaction
    ReduceOp Op = ReduceOp::Plus; ///< the ANNOTATED operator
    CustomReduceOp Custom;        ///< programmer-defined override, if any
    RedValue Acc; ///< operands folded with Op, from Op's identity

    /// Folds \p Operand into Acc with the effective operator.
    RedValue combine(const RedValue &A, const RedValue &B) const {
      return Custom.Combine ? Custom.Combine(A, B) : applyReduceOp(Op, A, B);
    }
  };
  const std::vector<RedSlotState> &reductionSlots() const { return RedSlots; }

  /// Merges one shipped reduction slot into committed memory (used by the
  /// fork executor's parent on behalf of a committing child).
  static void commitReductionSlot(const ReductionBinding &Binding,
                                  const RedSlotState &Slot);

  /// Instrumentation counters for this transaction.
  uint64_t instrReadCalls() const { return InstrReadCalls; }
  uint64_t instrWriteCalls() const { return InstrWriteCalls; }
  uint64_t bytesRead() const { return BytesRead; }
  uint64_t bytesWritten() const { return BytesWritten; }

  /// This transaction's footprint, for RunStats::countTransaction.
  TxnCounts counts() const {
    return {Reads.sizeWords(), Writes.sizeWords(), InstrReadCalls,
            InstrWriteCalls,   BytesRead,          BytesWritten};
  }

private:
  void loadBytes(const void *Addr, void *Out, size_t Size);
  void storeBytes(void *Addr, const void *Src, size_t Size);
  void storeInitBytes(void *Addr, const void *Src, size_t Size);
  void readRangeBytes(const void *Addr, void *Out, size_t Size);
  void writeRangeBytes(void *Addr, const void *Src, size_t Size);
  void checkSetLimits();
  void redUpdate(unsigned Slot, ReduceOp SourceOp, const RedValue &Operand);
  void growScratch(size_t Bytes);
  void logAcquiredObjects();

  ContextMode Mode;
  const RuntimeParams *Params;
  const LoopSpec *Spec;
  AlterAllocator *Allocator;
  unsigned Worker;
  TxnLimits Limits;

  bool TrackReads = false;
  bool TrackWrites = false;
  bool BufferedWrites = false;

  WriteLog Log;
  AccessSet Reads;
  AccessSet Writes;
  std::vector<RedSlotState> RedSlots;
  std::vector<std::pair<void *, size_t>> DeferredFrees;
  ArenaMark TxnArenaMark;

  /// A buffered context's private copy of one acquired object. Copies keep
  /// their capacity across transactions; the first NumAcquired are live.
  struct AcquiredCopy {
    void *Addr = nullptr;
    size_t Size = 0;
    size_t Capacity = 0;
    std::unique_ptr<std::byte[]> Bytes;
  };
  std::vector<AcquiredCopy> Acquired;
  size_t NumAcquired = 0;

  std::unique_ptr<std::byte[]> Scratch;
  size_t ScratchBytes = 0;

  // DepProbe state.
  AccessSet PriorReads;
  AccessSet PriorWrites;
  AccessSet CurReads;
  AccessSet CurWrites;
  bool SawRaw = false;
  bool SawWaw = false;
  bool SawWar = false;

  bool LimitExceeded = false;
  uint64_t MemTrafficBytes = 0;
  uint64_t InstrReadCalls = 0;
  uint64_t InstrWriteCalls = 0;
  uint64_t BytesRead = 0;
  uint64_t BytesWritten = 0;
};

} // namespace alter

#endif // ALTER_RUNTIME_TXNCONTEXT_H
