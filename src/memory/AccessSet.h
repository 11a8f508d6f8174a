//===- memory/AccessSet.h - Read/write set tracking -------------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Word-granularity read/write sets. The paper (§4.1) stores instrumented
/// block addresses "in a (local) hash set as well as a (global) array. The
/// hash set allows quick elimination of duplicates, while the global array
/// allows other processes to check for conflicts against their respective
/// read- and write-sets."
///
/// AccessSet keeps the same information as word runs: one vector of
/// [first, end) word-key intervals. §4.1 instruments whole objects and
/// whole induction-indexed array ranges at once, so a range stays one run
/// instead of one hash insert per word. The two halves of §4.1's structure
/// map onto two phases of a transaction:
///
///  - while the body runs, insertRange appends a run (or extends the last
///    one) in O(1); a run may repeat words of an earlier one, as a hash set
///    would have absorbed them;
///  - normalize() then sorts and coalesces the runs — the dedup the hash
///    set did per word, done once per transaction on the worker, before
///    the barrier. The normalized runs are the "global array": conflict
///    checks merge two sorted run lists (intersection over index ranges
///    rather than elements, as in "Detection of parallel steps in
///    programs with arrays"), and the wire ships the runs as they are.
///
/// Addresses are tracked at 8-byte word granularity. Table 4's "RW Set /
/// Trans." column counts distinct words (sizeWords), and the memory cap
/// models §4.1's hash set plus array for that many words.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_MEMORY_ACCESSSET_H
#define ALTER_MEMORY_ACCESSSET_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace alter {

/// A set of 8-byte memory words touched by one transaction, held as word
/// runs (see file comment). Every query is exact in any state; a
/// normalized set answers them without copying, which is the state every
/// engine validates, merges and ships.
class AccessSet {
public:
  /// The word keys [First, End). Word key 0 cannot occur for real data (it
  /// would mean an access in the first 8 bytes of the address space).
  struct Run {
    uintptr_t First;
    uintptr_t End;
  };

  /// Converts a byte address to its word key.
  static uintptr_t wordKey(const void *Addr) {
    return reinterpret_cast<uintptr_t>(Addr) >> 3;
  }

  /// Inserts the word containing \p Addr. Returns true if it was new.
  bool insert(const void *Addr) { return insertKey(wordKey(Addr)); }

  /// Inserts every word overlapping [Addr, Addr + Size) as one run.
  void insertRange(const void *Addr, size_t Size) {
    if (Size != 0)
      appendRun(wordKey(Addr),
                wordKey(static_cast<const char *>(Addr) + Size - 1) + 1);
  }

  /// Inserts the word keys [First, End): extends the last run when the new
  /// one starts inside or right after it, and appends otherwise — O(1),
  /// apart from an occasional compaction that keeps the run count within
  /// twice what normalize() last left, or MinCompactRuns.
  void appendRun(uintptr_t First, uintptr_t End);

  /// Sorts and coalesces the runs: afterwards they are ascending, disjoint
  /// and never adjacent, and sizeWords() is O(1).
  void normalize();

  /// True when the runs are in normalized form.
  bool normalized() const { return SortedRuns == Runs.size(); }

  /// True if the word containing \p Addr is present.
  bool contains(const void *Addr) const { return containsKey(wordKey(Addr)); }

  /// True if this set and \p Other share at least one word.
  bool intersects(const AccessSet &Other) const {
    return firstCommonWord(Other) != 0;
  }

  /// The lowest word key shared by this set and \p Other, or 0 when the
  /// sets are disjoint. Merges the two run lists, skipping past runs that
  /// end before the other list's current run, so sets in disjoint address
  /// blocks settle at the first comparison. The conflict detector uses the
  /// returned key as the abort's attribution witness.
  uintptr_t firstCommonWord(const AccessSet &Other) const;

  /// Inserts every word of \p Other into this set, which ends normalized.
  void unionWith(const AccessSet &Other);

  /// Number of distinct words tracked.
  size_t sizeWords() const;

  /// True when no words are tracked.
  bool empty() const { return Runs.empty(); }

  /// Bytes that §4.1's hash set (open addressing, at most 3/4 full, 64
  /// slots at least) plus its dense array of 8-byte keys would occupy for
  /// this set's words. Models the paper's AggloClust out-of-memory crash
  /// under read-set-hungry policies. On a set that is not normalized the
  /// word count it models is an upper bound: normalize before declaring a
  /// crash.
  size_t memoryFootprintBytes() const;

  /// The runs of a normalized set, ascending.
  const std::vector<Run> &runs() const;

  /// Removes all words, keeping capacity.
  void clear();

private:
  bool insertKey(uintptr_t Key);
  bool containsKey(uintptr_t Key) const;

  /// This set, or a normalized copy of it in \p Scratch.
  const AccessSet &normalizedView(AccessSet &Scratch) const;

  std::vector<Run> Runs;
  /// Sum of the run lengths: the distinct-word count once normalized, an
  /// upper bound before.
  size_t Words = 0;
  /// Length of the normalized prefix of Runs.
  size_t SortedRuns = 0;
  /// Run count at which appendRun compacts an unsorted set.
  static constexpr size_t MinCompactRuns = 1024;
  size_t CompactAt = MinCompactRuns;
};

/// The words many sets touched, recorded one set at a time: the dependence
/// probe's history of earlier iterations and the stage pipeline's
/// cross-stage footprints. An ordered map of disjoint, non-adjacent word
/// runs (first -> end), so merging in or checking a normalized set costs
/// O(runs x log history); a sorted vector would make every merge linear
/// in the history.
class AccessHistory {
public:
  /// Adds every word of the normalized set \p Set.
  void insert(const AccessSet &Set);

  /// True if the normalized set \p Set shares a word with the history.
  bool intersects(const AccessSet &Set) const;

  /// Number of distinct words recorded.
  size_t sizeWords() const { return Words; }

private:
  std::map<uintptr_t, uintptr_t> Runs;
  size_t Words = 0;
};

} // namespace alter

#endif // ALTER_MEMORY_ACCESSSET_H
