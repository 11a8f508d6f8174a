//===- tests/MemoryTest.cpp - Unit tests for src/memory -------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memory/AccessSet.h"
#include "memory/AlterAllocator.h"
#include "memory/WriteLog.h"
#include "runtime/TxnWire.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <vector>

using namespace alter;

//===----------------------------------------------------------------------===
// AccessSet
//===----------------------------------------------------------------------===

TEST(AccessSetTest, InsertAndContains) {
  AccessSet S;
  double X = 0, Y = 0;
  EXPECT_TRUE(S.insert(&X));
  EXPECT_FALSE(S.insert(&X)) << "duplicate insert must report not-new";
  EXPECT_TRUE(S.contains(&X));
  EXPECT_FALSE(S.contains(&Y));
  EXPECT_EQ(S.sizeWords(), 1u);
}

TEST(AccessSetTest, RangeInsertCoversEveryWord) {
  AccessSet S;
  std::vector<double> V(100);
  S.insertRange(V.data(), V.size() * sizeof(double));
  for (double &D : V)
    EXPECT_TRUE(S.contains(&D));
  // 100 doubles = 100 words (8-byte aligned vector).
  EXPECT_GE(S.sizeWords(), 100u);
  EXPECT_LE(S.sizeWords(), 101u);
}

TEST(AccessSetTest, EmptyRangeIsNoop) {
  AccessSet S;
  double X = 0;
  S.insertRange(&X, 0);
  EXPECT_TRUE(S.empty());
}

TEST(AccessSetTest, GrowPreservesMembers) {
  AccessSet S;
  std::vector<int64_t> V(5000);
  for (int64_t &E : V)
    S.insert(&E);
  EXPECT_EQ(S.sizeWords(), V.size());
  for (int64_t &E : V)
    EXPECT_TRUE(S.contains(&E));
}

TEST(AccessSetTest, IntersectsSymmetric) {
  AccessSet A, B;
  double X = 0, Y = 0, Z = 0;
  A.insert(&X);
  A.insert(&Y);
  B.insert(&Z);
  EXPECT_FALSE(A.intersects(B));
  EXPECT_FALSE(B.intersects(A));
  B.insert(&Y);
  EXPECT_TRUE(A.intersects(B));
  EXPECT_TRUE(B.intersects(A));
}

TEST(AccessSetTest, UnionWith) {
  AccessSet A, B;
  double X = 0, Y = 0;
  A.insert(&X);
  B.insert(&Y);
  A.unionWith(B);
  EXPECT_TRUE(A.contains(&X));
  EXPECT_TRUE(A.contains(&Y));
  EXPECT_EQ(A.sizeWords(), 2u);
}

TEST(AccessSetTest, ClearResets) {
  AccessSet S;
  double X = 0;
  S.insert(&X);
  S.clear();
  EXPECT_TRUE(S.empty());
  EXPECT_FALSE(S.contains(&X));
  EXPECT_TRUE(S.insert(&X));
}

TEST(AccessSetTest, NormalizeSortsAndCoalescesRuns) {
  AccessSet S;
  alignas(8) uint64_t V[8] = {};
  S.insert(&V[5]);
  S.insert(&V[1]); // descending: the set is no longer normalized
  S.insertRange(&V[2], 2 * sizeof(uint64_t));
  S.insert(&V[1]);
  EXPECT_FALSE(S.normalized());
  EXPECT_EQ(S.sizeWords(), 4u) << "distinct words, before normalizing too";
  S.normalize();
  ASSERT_TRUE(S.normalized());
  ASSERT_EQ(S.runs().size(), 2u);
  EXPECT_EQ(S.runs()[0].First, AccessSet::wordKey(&V[1]));
  EXPECT_EQ(S.runs()[0].End, AccessSet::wordKey(&V[4]));
  EXPECT_EQ(S.runs()[1].First, AccessSet::wordKey(&V[5]));
  EXPECT_EQ(S.runs()[1].End, AccessSet::wordKey(&V[6]));
  EXPECT_EQ(S.sizeWords(), 4u);
}

TEST(AccessSetTest, AppendRunExtendsTheLastRun) {
  AccessSet S;
  const uintptr_t K = 1000;
  S.appendRun(K, K + 4);
  S.appendRun(K + 4, K + 8); // adjacent
  S.appendRun(K + 2, K + 3); // inside
  ASSERT_TRUE(S.normalized());
  ASSERT_EQ(S.runs().size(), 1u);
  EXPECT_EQ(S.sizeWords(), 8u);
  S.appendRun(K + 20, K + 21); // past a gap: still in order
  EXPECT_TRUE(S.normalized());
  S.appendRun(K - 5, K - 4);
  EXPECT_FALSE(S.normalized());
  S.normalize();
  ASSERT_EQ(S.runs().size(), 3u);
  EXPECT_EQ(S.runs()[0].First, K - 5);
  EXPECT_EQ(S.runs()[2].First, K + 20);
  EXPECT_EQ(S.sizeWords(), 10u);
}

TEST(AccessSetTest, FootprintGrowsWithMembers) {
  AccessSet S;
  const size_t Empty = S.memoryFootprintBytes();
  std::vector<int64_t> V(10000);
  for (int64_t &E : V)
    S.insert(&E);
  EXPECT_GT(S.memoryFootprintBytes(), Empty);
}

TEST(AccessSetTest, SubWordAccessesShareAWord) {
  AccessSet S;
  alignas(8) char Buf[8];
  S.insert(&Buf[0]);
  EXPECT_FALSE(S.insert(&Buf[7])) << "same 8-byte word";
  EXPECT_EQ(S.sizeWords(), 1u);
}

//===----------------------------------------------------------------------===
// AccessSet and AccessHistory against a std::set oracle
//===----------------------------------------------------------------------===

namespace {

/// Word keys of byte range [Addr, Addr + Size).
void oracleInsert(std::set<uintptr_t> &Oracle, uintptr_t Addr, size_t Size) {
  for (uintptr_t K = Addr >> 3; K <= (Addr + Size - 1) >> 3; ++K)
    Oracle.insert(K);
}

/// Fills \p Set and \p Oracle with \p Ops accesses in a 4 KiB window that
/// mix ascending, descending, overlapping, adjacent and sub-word ranges and
/// single-word inserts.
void randomAccesses(Xoshiro256StarStar &Rng, unsigned Ops, AccessSet &Set,
                    std::set<uintptr_t> &Oracle) {
  const uintptr_t Lo = 0x100000, Window = 4096;
  uintptr_t Up = Lo, Down = Lo + Window, Prev = Lo + Window / 2;
  for (unsigned I = 0; I != Ops; ++I) {
    uintptr_t Addr = 0;
    size_t Size = 8 * (1 + Rng.nextBounded(24));
    switch (Rng.nextBounded(6)) {
    case 0: // ascending, sometimes touching the previous range
      Addr = Up + 8 * Rng.nextBounded(3);
      Up = Addr + Size;
      break;
    case 1: // descending
      Addr = Down - Size - 8 * Rng.nextBounded(3);
      Down = Addr;
      break;
    case 2: // anywhere, overlapping earlier ranges
      Addr = Lo + 8 * Rng.nextBounded(Window / 8);
      break;
    case 3: // adjacent to the previous access
      Addr = Prev;
      break;
    case 4: // sub-word start and size
      Addr = Lo + Rng.nextBounded(Window);
      Size = 1 + Rng.nextBounded(12);
      break;
    default: { // one word through insert()
      Addr = Lo + Rng.nextBounded(Window);
      const bool New = !Oracle.count(Addr >> 3);
      EXPECT_EQ(Set.insert(reinterpret_cast<const void *>(Addr)), New);
      Oracle.insert(Addr >> 3);
      Prev = Addr + 1;
      continue;
    }
    }
    if (Addr < Lo || Addr + Size > Lo + Window + 512) {
      Up = Lo;
      Down = Lo + Window;
      continue;
    }
    Set.insertRange(reinterpret_cast<const void *>(Addr), Size);
    oracleInsert(Oracle, Addr, Size);
    Prev = Addr + Size;
  }
}

std::set<uintptr_t> expand(AccessSet Set) {
  Set.normalize();
  std::set<uintptr_t> Keys;
  uintptr_t PrevEnd = 0;
  for (const AccessSet::Run &R : Set.runs()) {
    EXPECT_LT(R.First, R.End);
    EXPECT_GT(R.First, PrevEnd) << "runs must be ascending and coalesced";
    PrevEnd = R.End;
    for (uintptr_t K = R.First; K != R.End; ++K)
      Keys.insert(K);
  }
  return Keys;
}

} // namespace

TEST(AccessSetOracleTest, MatchesStdSet) {
  Xoshiro256StarStar Rng(24);
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    AccessSet A, B;
    std::set<uintptr_t> OA, OB;
    // Every 40th set appends enough runs to be compacted on the way.
    const unsigned OpsA =
        Trial % 40 == 0 ? 3000 : static_cast<unsigned>(Rng.nextBounded(160));
    randomAccesses(Rng, OpsA, A, OA);
    randomAccesses(Rng, static_cast<unsigned>(Rng.nextBounded(160)), B, OB);
    if (Trial % 2)
      A.normalize(); // queries hold in either state

    EXPECT_EQ(A.sizeWords(), OA.size());
    EXPECT_EQ(A.empty(), OA.empty());
    for (uintptr_t Addr = 0x100000 - 64; Addr < 0x100000 + 4096 + 640;
         Addr += 8)
      ASSERT_EQ(A.contains(reinterpret_cast<const void *>(Addr)),
                OA.count(Addr >> 3) != 0);

    std::set<uintptr_t> Common;
    for (uintptr_t K : OA)
      if (OB.count(K))
        Common.insert(K);
    EXPECT_EQ(A.intersects(B), !Common.empty());
    EXPECT_EQ(B.intersects(A), !Common.empty());
    const uintptr_t Witness = A.firstCommonWord(B);
    if (Common.empty()) {
      EXPECT_EQ(Witness, 0u);
    } else {
      EXPECT_TRUE(OA.count(Witness) && OB.count(Witness));
      EXPECT_EQ(Witness, *Common.begin()) << "the lowest shared word";
      EXPECT_EQ(B.firstCommonWord(A), Witness);
    }

    AccessSet U = A;
    U.unionWith(B);
    EXPECT_TRUE(U.normalized());
    std::set<uintptr_t> OU = OA;
    OU.insert(OB.begin(), OB.end());
    EXPECT_EQ(expand(U), OU);
    EXPECT_EQ(U.sizeWords(), OU.size());

    A.normalize();
    std::vector<uint8_t> Wire;
    serializeAccessSet(Wire, A);
    AccessSet Back;
    size_t Consumed = 0;
    ASSERT_TRUE(deserializeAccessSet(Wire.data(), Wire.size(), Back,
                                     Consumed));
    EXPECT_EQ(Consumed, Wire.size());
    EXPECT_TRUE(Back.normalized());
    EXPECT_EQ(Back.sizeWords(), OA.size());
    EXPECT_EQ(expand(Back), OA);
  }
}

TEST(AccessSetOracleTest, HistoryMatchesStdSet) {
  Xoshiro256StarStar Rng(7);
  for (unsigned Trial = 0; Trial != 20; ++Trial) {
    AccessHistory History;
    std::set<uintptr_t> Oracle;
    for (unsigned Iter = 0; Iter != 40; ++Iter) {
      AccessSet Cur;
      std::set<uintptr_t> OCur;
      randomAccesses(Rng, static_cast<unsigned>(Rng.nextBounded(12)), Cur,
                     OCur);
      Cur.normalize();
      bool Shared = false;
      for (uintptr_t K : OCur)
        Shared |= Oracle.count(K) != 0;
      ASSERT_EQ(History.intersects(Cur), Shared);
      History.insert(Cur);
      Oracle.insert(OCur.begin(), OCur.end());
      ASSERT_EQ(History.sizeWords(), Oracle.size());
    }
  }
}

TEST(AccessSetTest, FootprintModelsHashSetPlusArray) {
  // §4.1's table starts at 64 slots and doubles at 3/4 load; the key array
  // doubles as a vector grows. 48 distinct words fit in 1 KiB; the 49th
  // doubles the table.
  AccessSet S;
  EXPECT_EQ(S.memoryFootprintBytes(), 64u * 8);
  S.appendRun(1000, 1048);
  EXPECT_EQ(S.memoryFootprintBytes(), (64u + 64u) * 8);
  S.appendRun(1000, 1049);
  EXPECT_EQ(S.memoryFootprintBytes(), (128u + 64u) * 8);
  S.appendRun(500, 501);
  S.appendRun(1000, 1049); // repeats 49 words out of order
  EXPECT_GT(S.memoryFootprintBytes(), (128u + 64u) * 8)
      << "an upper bound until normalized";
  S.normalize();
  EXPECT_EQ(S.memoryFootprintBytes(), (128u + 64u) * 8) << "50 words";
}

//===----------------------------------------------------------------------===
// WriteLog
//===----------------------------------------------------------------------===

TEST(WriteLogTest, RecordLookupApply) {
  WriteLog Log;
  double Target = 1.0;
  const double NewValue = 2.5;
  Log.record(&Target, &NewValue, sizeof(double));

  double Out = 0;
  EXPECT_TRUE(Log.lookup(&Target, &Out, sizeof(double)));
  EXPECT_EQ(Out, 2.5);
  EXPECT_EQ(Target, 1.0) << "memory untouched before apply";

  Log.apply();
  EXPECT_EQ(Target, 2.5);
}

TEST(WriteLogTest, RepeatedStoreUpdatesInPlace) {
  WriteLog Log;
  int64_t Target = 0;
  for (int64_t V = 1; V <= 100; ++V)
    Log.record(&Target, &V, sizeof(V));
  EXPECT_EQ(Log.numEntries(), 1u) << "same-location stores coalesce";
  int64_t Out = 0;
  EXPECT_TRUE(Log.lookup(&Target, &Out, sizeof(Out)));
  EXPECT_EQ(Out, 100);
}

TEST(WriteLogTest, LookupMissReturnsFalse) {
  WriteLog Log;
  double A = 0, B = 0;
  Log.record(&A, &A, sizeof(A));
  double Out;
  EXPECT_FALSE(Log.lookup(&B, &Out, sizeof(Out)));
}

TEST(WriteLogTest, EnclosingEntryServesFieldReads) {
  WriteLog Log;
  struct Pair {
    int64_t A;
    int64_t B;
  };
  Pair Target = {0, 0};
  const Pair Fresh = {7, 9};
  Log.record(&Target, &Fresh, sizeof(Pair));
  int64_t Out = 0;
  EXPECT_TRUE(Log.lookup(&Target.B, &Out, sizeof(Out)));
  EXPECT_EQ(Out, 9);
}

TEST(WriteLogTest, OverlayRange) {
  WriteLog Log;
  std::vector<double> Committed(8, 1.0);
  const double Five = 5.0;
  Log.record(&Committed[3], &Five, sizeof(double));

  std::vector<double> View(8);
  std::memcpy(View.data(), Committed.data(), 8 * sizeof(double));
  Log.overlayRange(Committed.data(), 8 * sizeof(double), View.data());
  for (size_t I = 0; I != 8; ++I)
    EXPECT_EQ(View[I], I == 3 ? 5.0 : 1.0);
}

TEST(WriteLogTest, OverlayPartialOverlapAtEdges) {
  WriteLog Log;
  std::vector<char> Committed(16, 'a');
  const char Payload[4] = {'x', 'x', 'x', 'x'};
  Log.record(&Committed[6], Payload, 4);

  // View window [4, 12) overlaps the entry fully.
  char View[8];
  std::memcpy(View, &Committed[4], 8);
  Log.overlayRange(&Committed[4], 8, View);
  EXPECT_EQ(std::string(View, 8), "aaxxxxaa");

  // View window [0, 8) clips the entry's tail.
  char View2[8];
  std::memcpy(View2, &Committed[0], 8);
  Log.overlayRange(&Committed[0], 8, View2);
  EXPECT_EQ(std::string(View2, 8), "aaaaaaxx");
}

TEST(WriteLogTest, ClearDiscardsState) {
  WriteLog Log;
  double A = 1.0;
  const double V = 2.0;
  Log.record(&A, &V, sizeof(V));
  Log.clear();
  EXPECT_TRUE(Log.empty());
  Log.apply();
  EXPECT_EQ(A, 1.0);
}

TEST(WriteLogTest, ApplyPreservesProgramOrder) {
  WriteLog Log;
  int64_t A = 0;
  const int64_t V1 = 1, V2 = 2;
  Log.record(&A, &V1, sizeof(V1));
  Log.record(&A, &V2, sizeof(V2));
  Log.apply();
  EXPECT_EQ(A, 2);
}

//===----------------------------------------------------------------------===
// AlterAllocator
//===----------------------------------------------------------------------===

TEST(AlterAllocatorTest, AllocationsAreWritable) {
  AlterAllocator Alloc(2, 1 << 20);
  auto *P = static_cast<int64_t *>(Alloc.allocate(0, sizeof(int64_t)));
  *P = 42;
  EXPECT_EQ(*P, 42);
}

TEST(AlterAllocatorTest, WorkerArenasAreDisjoint) {
  AlterAllocator Alloc(4, 1 << 20);
  std::set<void *> Seen;
  for (unsigned W = 0; W != 5; ++W) {
    for (int I = 0; I != 100; ++I) {
      void *P = Alloc.allocate(W, 64);
      EXPECT_TRUE(Seen.insert(P).second)
          << "address handed out twice across arenas";
      EXPECT_EQ(Alloc.addressWorker(P), W);
    }
  }
}

TEST(AlterAllocatorTest, OwnsAddress) {
  AlterAllocator Alloc(1, 1 << 16);
  void *P = Alloc.allocate(0, 32);
  EXPECT_TRUE(Alloc.ownsAddress(P));
  int Local;
  EXPECT_FALSE(Alloc.ownsAddress(&Local));
}

TEST(AlterAllocatorTest, FreeListReuse) {
  AlterAllocator Alloc(1, 1 << 20);
  void *P = Alloc.allocate(0, 48);
  Alloc.deallocate(0, P, 48);
  void *Q = Alloc.allocate(0, 48);
  EXPECT_EQ(P, Q) << "freed block should be reused";
  EXPECT_EQ(Alloc.freeListHits(), 1u);
}

TEST(AlterAllocatorTest, ArenasChurnConcurrentlyOnTwoThreads) {
  // The threaded lock-step engine allocates and frees in each worker's
  // arena on that worker's own thread. Arenas share no mutable state, the
  // free-list hit count included, so two threads churning two arenas race
  // on nothing and lose no hit.
  constexpr int Rounds = 5000;
  AlterAllocator Alloc(2, 1 << 20);
  const auto Churn = [&Alloc](unsigned W) {
    for (int I = 0; I != Rounds; ++I) {
      void *P = Alloc.allocate(W, 48);
      std::memset(P, static_cast<int>(W), 48);
      Alloc.deallocate(W, P, 48);
    }
  };
  std::thread First(Churn, 1u);
  std::thread Second(Churn, 2u);
  First.join();
  Second.join();
  // Each arena's first allocation bumps; every later one reuses the block
  // the previous round freed.
  EXPECT_EQ(Alloc.freeListHits(), 2u * (Rounds - 1));
  EXPECT_EQ(Alloc.bytesAllocated(1), Alloc.bytesAllocated(2));
}

TEST(AlterAllocatorTest, DifferentSizeClassesDontMix) {
  AlterAllocator Alloc(1, 1 << 20);
  void *P = Alloc.allocate(0, 16);
  Alloc.deallocate(0, P, 16);
  void *Q = Alloc.allocate(0, 1024);
  EXPECT_NE(P, Q);
}

TEST(AlterAllocatorTest, MarkRollbackReleasesBumpSpace) {
  AlterAllocator Alloc(1, 1 << 20);
  const ArenaMark Mark = Alloc.mark(0);
  void *P = Alloc.allocate(0, 256);
  EXPECT_GT(Alloc.bumpOffset(0), Mark.BumpOffset);
  Alloc.rollback(0, Mark);
  EXPECT_EQ(Alloc.bumpOffset(0), Mark.BumpOffset);
  void *Q = Alloc.allocate(0, 256);
  EXPECT_EQ(P, Q) << "rollback must release the aborted allocation";
}

TEST(AlterAllocatorTest, AdvanceBumpMirrorsChildCursor) {
  AlterAllocator Alloc(2, 1 << 20);
  const size_t Before = Alloc.bumpOffset(1);
  Alloc.advanceBump(1, Before + 512);
  EXPECT_EQ(Alloc.bumpOffset(1), Before + 512);
  // Never moves backwards.
  Alloc.advanceBump(1, Before);
  EXPECT_EQ(Alloc.bumpOffset(1), Before + 512);
}

TEST(AlterAllocatorTest, LargeAllocationsBypassClasses) {
  AlterAllocator Alloc(1, 1 << 20);
  void *P = Alloc.allocate(0, 100000);
  EXPECT_TRUE(Alloc.ownsAddress(P));
  auto *Bytes = static_cast<char *>(P);
  Bytes[0] = 1;
  Bytes[99999] = 2;
  EXPECT_EQ(Bytes[0], 1);
}

TEST(AlterAllocatorTest, AlignmentIsSixteenBytes) {
  AlterAllocator Alloc(1, 1 << 20);
  for (size_t Size : {1ul, 8ul, 24ul, 100ul, 5000ul}) {
    void *P = Alloc.allocate(0, Size);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 16, 0u)
        << "size " << Size << " misaligned";
  }
}

TEST(AlterAllocatorTest, ZeroByteAllocationIsValid) {
  AlterAllocator Alloc(1, 1 << 16);
  void *P = Alloc.allocate(0, 0);
  EXPECT_NE(P, nullptr);
}
