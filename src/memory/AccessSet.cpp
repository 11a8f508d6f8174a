//===- memory/AccessSet.cpp -----------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memory/AccessSet.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>

using namespace alter;

namespace {

using Run = AccessSet::Run;

bool byFirst(const Run &A, const Run &B) { return A.First < B.First; }

/// Index of the first run after \p I that ends past \p Key, where run \p I
/// ends at or before it: usually the next run, else a binary search.
size_t skipPast(const std::vector<Run> &Runs, size_t I, uintptr_t Key) {
  if (++I == Runs.size() || Runs[I].End > Key)
    return I;
  return static_cast<size_t>(
      std::partition_point(Runs.begin() + static_cast<ptrdiff_t>(I),
                           Runs.end(),
                           [Key](const Run &R) { return R.End <= Key; }) -
      Runs.begin());
}

} // namespace

bool AccessSet::insertKey(uintptr_t Key) {
  const bool New = !containsKey(Key);
  appendRun(Key, Key + 1);
  return New;
}

void AccessSet::appendRun(uintptr_t First, uintptr_t End) {
  assert(First != 0 && "access in the first word of the address space");
  assert(First < End && "empty run");
  if (!Runs.empty()) {
    Run &Last = Runs.back();
    if (First >= Last.First && First <= Last.End) {
      if (End > Last.End) {
        Words += End - Last.End;
        Last.End = End;
      }
      return;
    }
  }
  if (normalized() && (Runs.empty() || First > Runs.back().End))
    ++SortedRuns;
  Runs.push_back({First, End});
  Words += End - First;
  if (!normalized() && Runs.size() >= CompactAt)
    normalize();
}

void AccessSet::normalize() {
  if (normalized())
    return;
  // Insert each out-of-order tail run into the sorted prefix while its
  // place is among the last few runs — a nearly sorted tail, such as a
  // row's diagonal store ahead of the row's ascending stores — and sort
  // and merge in whatever is left.
  constexpr size_t MaxShift = 8;
  size_t Lowest = SortedRuns; // lowest index whose run moved
  size_t I = std::max<size_t>(SortedRuns, 1);
  for (; I != Runs.size(); ++I) {
    const Run R = Runs[I];
    if (R.First >= Runs[I - 1].First)
      continue;
    size_t J = I - 1;
    while (J != 0 && R.First < Runs[J - 1].First && I - J != MaxShift)
      --J;
    if (J != 0 && R.First < Runs[J - 1].First)
      break;
    for (size_t K = I; K != J; --K)
      Runs[K] = Runs[K - 1];
    Runs[J] = R;
    Lowest = std::min(Lowest, J);
  }
  if (I < Runs.size()) {
    const auto Mid = Runs.begin() + static_cast<ptrdiff_t>(I);
    std::sort(Mid, Runs.end(), byFirst);
    Lowest = std::min(Lowest, I);
    if (Mid->First < std::prev(Mid)->First) {
      std::inplace_merge(Runs.begin(), Mid, Runs.end(), byFirst);
      Lowest = 0;
    }
  }
  // Coalesce overlapping and adjacent runs from the first one that moved,
  // taking each overlap out of the word count.
  size_t Out = Lowest == 0 ? 0 : Lowest - 1;
  for (size_t K = Out + 1; K < Runs.size(); ++K) {
    if (Runs[K].First <= Runs[Out].End) {
      Words -= std::min(Runs[Out].End, Runs[K].End) - Runs[K].First;
      Runs[Out].End = std::max(Runs[Out].End, Runs[K].End);
    } else {
      Runs[++Out] = Runs[K];
    }
  }
  Runs.resize(Out + 1);
  SortedRuns = Runs.size();
  CompactAt = std::max(MinCompactRuns, 2 * Runs.size());
}

const AccessSet &AccessSet::normalizedView(AccessSet &Scratch) const {
  if (normalized())
    return *this;
  Scratch = *this;
  Scratch.normalize();
  return Scratch;
}

bool AccessSet::containsKey(uintptr_t Key) const {
  if (!normalized())
    return std::any_of(Runs.begin(), Runs.end(), [Key](const Run &R) {
      return R.First <= Key && Key < R.End;
    });
  const auto It =
      std::upper_bound(Runs.begin(), Runs.end(), Key,
                       [](uintptr_t K, const Run &R) { return K < R.First; });
  return It != Runs.begin() && Key < std::prev(It)->End;
}

uintptr_t AccessSet::firstCommonWord(const AccessSet &Other) const {
  AccessSet ScratchA, ScratchB;
  const std::vector<Run> &A = normalizedView(ScratchA).Runs;
  const std::vector<Run> &B = Other.normalizedView(ScratchB).Runs;
  size_t I = 0, J = 0;
  while (I != A.size() && J != B.size()) {
    if (A[I].End <= B[J].First)
      I = skipPast(A, I, B[J].First);
    else if (B[J].End <= A[I].First)
      J = skipPast(B, J, A[I].First);
    else
      return std::max(A[I].First, B[J].First);
  }
  return 0;
}

void AccessSet::unionWith(const AccessSet &Other) {
  if (&Other == this)
    return;
  AccessSet Scratch;
  const AccessSet &O = Other.normalizedView(Scratch);
  normalize();
  Runs.insert(Runs.end(), O.Runs.begin(), O.Runs.end());
  Words += O.Words;
  if (SortedRuns == 0 || O.empty() ||
      O.Runs.front().First > Runs[SortedRuns - 1].End) {
    // Wholly above this set, as commits retiring in address order are:
    // the runs join on as they are.
    SortedRuns = Runs.size();
    CompactAt = std::max(MinCompactRuns, 2 * Runs.size());
    return;
  }
  normalize(); // one linear merge of the sorted tail
}

size_t AccessSet::sizeWords() const {
  AccessSet Scratch;
  return normalizedView(Scratch).Words;
}

size_t AccessSet::memoryFootprintBytes() const {
  // The hash set doubled whenever an insert found it 3/4 full, so n words
  // need the least power of two above 4(n - 1)/3; the array doubles as a
  // growing vector does.
  const size_t Slots = std::max<size_t>(
      64, std::bit_ceil((Words == 0 ? 0 : (Words - 1) * 4 / 3) + 1));
  const size_t Keys = Words == 0 ? 0 : std::bit_ceil(Words);
  return (Slots + Keys) * sizeof(uintptr_t);
}

const std::vector<Run> &AccessSet::runs() const {
  assert(normalized() && "runs() of a set that was not normalized");
  return Runs;
}

void AccessSet::clear() {
  Runs.clear();
  Words = 0;
  SortedRuns = 0;
  CompactAt = MinCompactRuns;
}

//===----------------------------------------------------------------------===
// AccessHistory
//===----------------------------------------------------------------------===

void AccessHistory::insert(const AccessSet &Set) {
  for (const Run &R : Set.runs()) {
    // Extend the run that starts at or below R.First if it reaches R.First,
    // else start one there; then absorb every run the extension reaches.
    auto It = Runs.upper_bound(R.First);
    if (It != Runs.begin() && std::prev(It)->second >= R.First)
      --It;
    else
      It = Runs.emplace_hint(It, R.First, R.First);
    if (It->second >= R.End)
      continue;
    Words += R.End - It->second;
    It->second = R.End;
    for (auto Next = std::next(It);
         Next != Runs.end() && Next->first <= It->second;
         Next = Runs.erase(Next)) {
      Words -= Next->second - Next->first;
      if (Next->second > It->second) {
        Words += Next->second - It->second;
        It->second = Next->second;
      }
    }
  }
}

bool AccessHistory::intersects(const AccessSet &Set) const {
  for (const Run &R : Set.runs()) {
    const auto It = Runs.upper_bound(R.First);
    if (It != Runs.begin() && std::prev(It)->second > R.First)
      return true;
    if (It != Runs.end() && It->first < R.End)
      return true;
  }
  return false;
}
