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
/// read- and write-sets." AccessSet mirrors that structure: an
/// open-addressing hash set for dedup plus a dense array of the unique words
/// for iteration, serialization, and cross-set intersection.
///
/// Addresses are tracked at 8-byte word granularity; instrumenting a range
/// inserts every word it covers, matching the paper's allocation-granularity
/// instrumentation where whole objects (and whole array ranges indexed by an
/// induction variable) are inserted at once. Table 4's "RW Set / Trans."
/// column counts exactly these words.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_MEMORY_ACCESSSET_H
#define ALTER_MEMORY_ACCESSSET_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace alter {

/// A deduplicated set of 8-byte memory words touched by one transaction.
class AccessSet {
public:
  AccessSet();

  /// Converts a byte address to its word key.
  static uintptr_t wordKey(const void *Addr) {
    return reinterpret_cast<uintptr_t>(Addr) >> 3;
  }

  /// Inserts the word containing \p Addr. Returns true if it was new.
  bool insert(const void *Addr) { return insertKey(wordKey(Addr)); }

  /// Inserts every word overlapping [Addr, Addr + Size).
  void insertRange(const void *Addr, size_t Size);

  /// True if the word containing \p Addr is present.
  bool contains(const void *Addr) const { return containsKey(wordKey(Addr)); }

  /// True if this set and \p Other share at least one word.
  bool intersects(const AccessSet &Other) const;

  /// A word key shared by this set and \p Other, or 0 when the sets are
  /// disjoint (word key 0 cannot occur for real data). Same cost as
  /// intersects(); the conflict detector uses the returned key as the
  /// abort's attribution witness.
  uintptr_t firstCommonWord(const AccessSet &Other) const;

  /// Inserts every word of \p Other into this set.
  void unionWith(const AccessSet &Other);

  /// Number of distinct words tracked.
  size_t sizeWords() const { return Words.size(); }

  /// True when no words are tracked.
  bool empty() const { return Words.empty(); }

  /// Approximate bytes of memory this set consumes (hash table + array).
  /// Used to model the paper's AggloClust out-of-memory crash under
  /// read-set-hungry policies.
  size_t memoryFootprintBytes() const;

  /// Dense array of the unique word keys, in insertion order — the paper's
  /// "global array" view used for cross-process conflict checks.
  const std::vector<uintptr_t> &words() const { return Words; }

  /// Removes all words, keeping capacity.
  void clear();

  /// Serializes to a flat word vector (the wire format used by the fork
  /// executor); deserialization is bulk insertion.
  void insertWords(const uintptr_t *Keys, size_t Count);

private:
  bool insertKey(uintptr_t Key);
  bool containsKey(uintptr_t Key) const;
  void grow();

  static uint64_t hashKey(uintptr_t Key) {
    uint64_t X = static_cast<uint64_t>(Key);
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdULL;
    X ^= X >> 33;
    X *= 0xc4ceb9fe1a85ec53ULL;
    X ^= X >> 33;
    return X;
  }

  /// Open-addressing table of word keys; EmptyKey marks free slots. Word
  /// key 0 cannot occur for real data (it would mean an access in the first
  /// 8 bytes of the address space), so 0 serves as the empty marker.
  static constexpr uintptr_t EmptyKey = 0;

  std::vector<uintptr_t> Table;
  std::vector<uintptr_t> Words;
  size_t Mask = 0;
};

} // namespace alter

#endif // ALTER_MEMORY_ACCESSSET_H
