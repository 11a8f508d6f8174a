//===- memory/AlterAllocator.h - Multi-process-safe allocator ---*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ALTER allocator (§4.1). The paper replaces every allocator call in an
/// annotated loop with a HOARD-inspired allocator tuned for a multi-PROCESS
/// environment. Its one hard guarantee: no two concurrent processes are ever
/// handed the same virtual address, so a transaction's freshly allocated
/// objects can be copied verbatim into the committed (parent) memory at
/// commit time without clobbering live data.
///
/// Design here:
///  - One contiguous reservation is mmap'ed up front (before any fork), so
///    the region exists at the same address in parent and children.
///  - The reservation is carved into per-worker arenas; worker W bump-
///    allocates only inside arena W, which makes the disjointness guarantee
///    structural rather than lock-based — the only cross-process
///    synchronization the design needs is the arena assignment itself,
///    mirroring the paper's "minimally use inter-process semaphores" goal.
///  - Per-worker size-class free lists recycle explicit frees. Frees issued
///    inside a transaction are deferred to commit (aborted transactions must
///    not free live objects), matching the observation that allocator
///    ordering is a breakable dependence.
///  - An arena mark/rollback pair undoes the bump allocations of an aborted
///    transaction.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_MEMORY_ALTERALLOCATOR_H
#define ALTER_MEMORY_ALTERALLOCATOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace alter {

/// Snapshot of one worker arena's allocation cursor, used to roll back the
/// allocations of an aborted transaction.
struct ArenaMark {
  size_t BumpOffset = 0;
};

/// Arena-per-worker allocator with the ALTER disjoint-virtual-address
/// guarantee.
class AlterAllocator {
public:
  /// Reserves NumWorkers arenas of \p BytesPerWorker each (plus one arena,
  /// index 0, for the sequential/committed context). The reservation is a
  /// single private anonymous mapping created immediately, so the layout is
  /// identical in any process forked afterwards.
  AlterAllocator(unsigned NumWorkers, size_t BytesPerWorker);
  ~AlterAllocator();

  AlterAllocator(const AlterAllocator &) = delete;
  AlterAllocator &operator=(const AlterAllocator &) = delete;

  /// Allocates \p Size bytes from worker \p Worker's arena (0 = sequential
  /// context). Never returns null; aborts if the arena is exhausted.
  void *allocate(unsigned Worker, size_t Size);

  /// Returns \p Ptr to worker \p Worker's free lists for reuse. \p Size must
  /// be the original allocation size.
  void deallocate(unsigned Worker, void *Ptr, size_t Size);

  /// Captures worker \p Worker's bump cursor.
  ArenaMark mark(unsigned Worker) const;

  /// Rolls worker \p Worker's bump cursor back to \p Mark, releasing every
  /// allocation made since. Free lists are intentionally untouched: deferred
  /// frees are only applied at commit, so an abort has none to undo.
  void rollback(unsigned Worker, const ArenaMark &Mark);

  /// Advances worker \p Worker's bump cursor to \p Offset if it is behind.
  /// The fork-based executor uses this in the parent to mirror the
  /// allocations a committing child performed.
  void advanceBump(unsigned Worker, size_t Offset);

  /// Current bump offset of \p Worker's arena.
  size_t bumpOffset(unsigned Worker) const;

  /// True if \p Ptr lies inside the reservation.
  bool ownsAddress(const void *Ptr) const;

  /// Arena index owning \p Ptr; aborts if \p Ptr is not owned.
  unsigned addressWorker(const void *Ptr) const;

  /// Total bytes handed out (before reuse) from \p Worker's arena.
  size_t bytesAllocated(unsigned Worker) const;

  /// Number of allocate() calls served from a free list (reuse hits),
  /// summed over the arenas. Each arena counts its own hits, so workers on
  /// different threads never write one counter; call this while no worker
  /// allocates.
  uint64_t freeListHits() const;

private:
  /// One worker's arena. Cache-line aligned: workers on different threads
  /// bump neighboring arenas concurrently.
  struct alignas(64) Arena {
    char *Base = nullptr;
    size_t Bump = 0;
    /// Free list heads per size class; each free block's first word links
    /// to the next.
    std::vector<void *> FreeLists;
    /// allocate() calls this arena served from a free list.
    uint64_t FreeListHits = 0;
  };

  static unsigned sizeClassFor(size_t Size);
  static size_t sizeClassBytes(unsigned Class);

  Arena &arena(unsigned Worker);
  const Arena &arena(unsigned Worker) const;

  char *Reservation = nullptr;
  size_t ReservationBytes = 0;
  size_t ArenaBytes = 0;
  std::vector<Arena> Arenas;
};

} // namespace alter

#endif // ALTER_MEMORY_ALTERALLOCATOR_H
