//===- memory/AlterAllocator.cpp ------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memory/AlterAllocator.h"

#include "support/Error.h"
#include "support/Format.h"

#include <cassert>
#include <cstring>
#include <sys/mman.h>

using namespace alter;

namespace {
/// Size classes: 16, 32, 64, ..., 4096. Larger blocks are bump-only.
constexpr size_t MinClassBytes = 16;
constexpr size_t MaxClassBytes = 4096;
constexpr unsigned NumClasses = 9; // 16 << 8 == 4096

size_t alignUp(size_t Value, size_t Align) {
  return (Value + Align - 1) & ~(Align - 1);
}
} // namespace

unsigned AlterAllocator::sizeClassFor(size_t Size) {
  size_t Bytes = MinClassBytes;
  unsigned Class = 0;
  while (Bytes < Size) {
    Bytes <<= 1;
    ++Class;
  }
  return Class;
}

size_t AlterAllocator::sizeClassBytes(unsigned Class) {
  return MinClassBytes << Class;
}

AlterAllocator::AlterAllocator(unsigned NumWorkers, size_t BytesPerWorker) {
  ArenaBytes = alignUp(BytesPerWorker, 4096);
  const unsigned TotalArenas = NumWorkers + 1; // arena 0 = sequential
  ReservationBytes = ArenaBytes * TotalArenas;
  void *Mapped = ::mmap(nullptr, ReservationBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  // Deliberately fatal: this is the workload's entire heap, reserved once
  // at startup before any engine exists. There is no degraded mode without
  // it — the sequential fallback uses the same arenas — and MAP_NORESERVE
  // means failure here is address-space exhaustion at process start, not
  // runtime memory pressure. (Per-run resources that CAN fail mid-flight,
  // like commit-ring mmaps, are contained instead — see CommitRing.)
  if (Mapped == MAP_FAILED)
    fatalError(strprintf("AlterAllocator: mmap of %zu bytes failed",
                         ReservationBytes));
  Reservation = static_cast<char *>(Mapped);
  Arenas.resize(TotalArenas);
  for (unsigned I = 0; I != TotalArenas; ++I) {
    Arenas[I].Base = Reservation + static_cast<size_t>(I) * ArenaBytes;
    Arenas[I].FreeLists.assign(NumClasses, nullptr);
  }
}

AlterAllocator::~AlterAllocator() {
  if (Reservation)
    ::munmap(Reservation, ReservationBytes);
}

AlterAllocator::Arena &AlterAllocator::arena(unsigned Worker) {
  assert(Worker < Arenas.size() && "worker index out of range");
  return Arenas[Worker];
}

const AlterAllocator::Arena &AlterAllocator::arena(unsigned Worker) const {
  assert(Worker < Arenas.size() && "worker index out of range");
  return Arenas[Worker];
}

void *AlterAllocator::allocate(unsigned Worker, size_t Size) {
  if (Size == 0)
    Size = 1;
  Arena &A = arena(Worker);
  if (Size <= MaxClassBytes) {
    const unsigned Class = sizeClassFor(Size);
    if (void *Reused = A.FreeLists[Class]) {
      std::memcpy(&A.FreeLists[Class], Reused, sizeof(void *));
      ++A.FreeListHits;
      return Reused;
    }
    const size_t Bytes = sizeClassBytes(Class);
    const size_t Offset = alignUp(A.Bump, MinClassBytes);
    // Arena exhaustion is a sized-capacity invariant, not environment
    // pressure: the reservation was committed at startup, so running off
    // its end means the workload outgrew its declared footprint. Forked
    // children die by _exit and the parent contains it as a chunk fault;
    // parent-side it is the documented abort the sandbox tests assert.
    if (Offset + Bytes > ArenaBytes)
      fatalError(strprintf("AlterAllocator: arena %u exhausted", Worker));
    A.Bump = Offset + Bytes;
    return A.Base + Offset;
  }
  const size_t Offset = alignUp(A.Bump, MinClassBytes);
  // Same capacity invariant as the size-class path above.
  if (Offset + Size > ArenaBytes)
    fatalError(strprintf("AlterAllocator: arena %u exhausted", Worker));
  A.Bump = Offset + Size;
  return A.Base + Offset;
}

void AlterAllocator::deallocate(unsigned Worker, void *Ptr, size_t Size) {
  if (!Ptr)
    return;
  assert(ownsAddress(Ptr) && "deallocating a pointer the allocator does not own");
  if (Size > MaxClassBytes)
    return; // large blocks are bump-only; reclaimed on rollback/teardown
  Arena &A = arena(Worker);
  const unsigned Class = sizeClassFor(Size);
  std::memcpy(Ptr, &A.FreeLists[Class], sizeof(void *));
  A.FreeLists[Class] = Ptr;
}

ArenaMark AlterAllocator::mark(unsigned Worker) const {
  return ArenaMark{arena(Worker).Bump};
}

void AlterAllocator::rollback(unsigned Worker, const ArenaMark &Mark) {
  Arena &A = arena(Worker);
  assert(Mark.BumpOffset <= A.Bump && "rollback target is ahead of cursor");
  A.Bump = Mark.BumpOffset;
}

void AlterAllocator::advanceBump(unsigned Worker, size_t Offset) {
  Arena &A = arena(Worker);
  // Invariant violation: the cursor comes from a validated commit of our
  // own child, so an out-of-range value means corrupted commit state.
  if (Offset > ArenaBytes)
    fatalError("AlterAllocator: advanceBump beyond arena");
  if (Offset > A.Bump)
    A.Bump = Offset;
}

size_t AlterAllocator::bumpOffset(unsigned Worker) const {
  return arena(Worker).Bump;
}

bool AlterAllocator::ownsAddress(const void *Ptr) const {
  const char *P = static_cast<const char *>(Ptr);
  return P >= Reservation && P < Reservation + ReservationBytes;
}

unsigned AlterAllocator::addressWorker(const void *Ptr) const {
  // Invariant violation: callers must check ownsAddress first.
  if (!ownsAddress(Ptr))
    fatalError("AlterAllocator: address not owned by any arena");
  const size_t Delta =
      static_cast<size_t>(static_cast<const char *>(Ptr) - Reservation);
  return static_cast<unsigned>(Delta / ArenaBytes);
}

size_t AlterAllocator::bytesAllocated(unsigned Worker) const {
  return arena(Worker).Bump;
}

uint64_t AlterAllocator::freeListHits() const {
  uint64_t Hits = 0;
  for (const Arena &A : Arenas)
    Hits += A.FreeListHits;
  return Hits;
}
