//===- memory/WriteLog.h - Buffered transactional writes --------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The write log buffers every instrumented store a transaction performs, so
/// the committed memory state stays untouched until the transaction
/// validates (§4.1's "commit writes to committed memory state"). The same
/// log doubles as the wire format the fork-based executor uses to ship a
/// child process's writes to the parent: because the ALTER allocator
/// guarantees concurrent processes never share virtual addresses, the parent
/// can apply the log verbatim ("objects can be directly copied between
/// processes without overwriting live values", §4.1).
///
/// The record/lookup fast path is a single open-addressing probe — several
/// of the paper's loops (Genome, SSCA2) run bodies of a few dozen
/// nanoseconds, so per-store overhead directly bounds achievable speedup.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_MEMORY_WRITELOG_H
#define ALTER_MEMORY_WRITELOG_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace alter {

/// Ordered log of byte-exact buffered stores with read-your-own-writes
/// lookup.
class WriteLog {
public:
  WriteLog();

  /// Buffers a store of \p Size bytes from \p Bytes to \p Addr. A repeated
  /// store to the same (address, size) updates the buffered value in place.
  void record(void *Addr, const void *Bytes, size_t Size);

  /// If the log holds a buffered value covering exactly or enclosing
  /// [Addr, Addr + Size), copies it to \p OutBytes and returns true.
  /// Returns false when the location has not been written by this
  /// transaction (the caller then reads the committed snapshot).
  bool lookup(const void *Addr, void *OutBytes, size_t Size) const {
    if (Entries.empty())
      return false;
    return lookupSlow(Addr, OutBytes, Size);
  }

  /// Definite-miss filter: false means no buffered store can cover any
  /// byte of [Addr, Addr + Size), so the caller may read committed memory
  /// directly. This is the load fast path that recovers the paper's
  /// zero-cost reads — in the real system children read their private COW
  /// pages with no software check at all.
  bool mayContain(const void *Addr, size_t Size) const {
    if (LargeEntries)
      return true;
    const uintptr_t First = reinterpret_cast<uintptr_t>(Addr) >> 3;
    const uintptr_t Last =
        (reinterpret_cast<uintptr_t>(Addr) + Size - 1) >> 3;
    for (uintptr_t Word = First; Word <= Last; ++Word)
      if (bloomTest(Word))
        return true;
    return false;
  }

  /// Applies every buffered store to memory, in program order (later stores
  /// to the same location win). Called at commit time.
  void apply() const;

  /// Overlays any buffered stores intersecting [Addr, Addr + Size) onto
  /// \p Buf, which the caller has pre-filled with the committed bytes of
  /// that range. This gives range reads (readRange) read-your-own-writes
  /// semantics without per-element lookups, and returns at once for a
  /// range outside the span of the log's entries.
  void overlayRange(const void *Addr, size_t Size, void *Buf) const;

  /// Number of distinct buffered entries.
  size_t numEntries() const { return Entries.size(); }

  /// Total buffered payload bytes.
  size_t dataBytes() const { return Data.size(); }

  /// True when nothing has been recorded.
  bool empty() const { return Entries.empty(); }

  /// Discards all buffered stores, keeping capacity.
  void clear();

  /// Size in bytes of the flat form — u64 entry count, then per entry
  /// {u64 addr, u64 size}, then the payload — that the compact wire form
  /// is measured against.
  size_t serializedSize() const;

  /// Appends the compressed wire form to \p Out: varint entry count, then
  /// per entry (in program order, which record() replay requires) the
  /// zigzag-varint delta of its start address from the previous entry's
  /// start plus its varint size, then the concatenated payload bytes.
  /// Sequential stores — the dominant pattern in range-heavy loops like
  /// Floyd and GaussSeidel — encode in ~2 table bytes per entry instead of
  /// the raw form's 16.
  void serializeCompact(std::vector<uint8_t> &Out) const;

  /// Reconstructs a log from serializeCompact's form. Validates the entry
  /// table (bounded entry count, overflow-checked payload accounting)
  /// before allocating, and returns false on truncated or corrupt input.
  /// On success replaces \p Out.
  static bool deserializeCompactChecked(const uint8_t *Buf, size_t Len,
                                        WriteLog &Out);

  //===--------------------------------------------------------------------===
  // Undo/redo protocol
  //
  // The in-process executors let transactions write DIRECTLY to memory —
  // recording the overwritten bytes here first — so reads run at raw
  // hardware speed and naturally observe the transaction's own writes,
  // exactly like a child process reading its private COW pages in the
  // paper's runtime. At transaction end the executor suspends the
  // transaction: memory is restored to the committed snapshot (so the next
  // round-mate sees clean state) and the log flips to holding the NEW
  // values, ready for apply() at commit.
  //===--------------------------------------------------------------------===

  /// Records the current bytes at \p Addr as undo data (first write wins:
  /// a repeated store to the same location must NOT refresh the saved
  /// snapshot bytes). Call BEFORE overwriting memory.
  void recordUndo(void *Addr, size_t Size);

  /// Swaps every entry's buffered bytes with memory, newest entry first:
  /// memory returns to the committed snapshot and the log ends up holding
  /// the transaction's final values (redo data). apply() then replays them
  /// oldest-first at commit.
  void swapWithMemory();

  /// Overwrites every entry's buffered bytes with the current memory
  /// contents WITHOUT restoring memory. Used by fork-join children, whose
  /// address space is discarded anyway: the serialized log must carry the
  /// new values to the parent.
  void captureRedo();

private:
  struct Entry {
    uintptr_t Addr;
    uint64_t Size;
    uint64_t Offset; // into Data
  };

  bool lookupSlow(const void *Addr, void *OutBytes, size_t Size) const;
  void growSlots();

  static uint64_t bloomHash(uintptr_t WordKey) {
    return (static_cast<uint64_t>(WordKey) * 0x9E3779B97F4A7C15ULL) >> 51;
  }
  void bloomSet(uintptr_t WordKey) {
    const uint64_t H = bloomHash(WordKey);
    Bloom[(H >> 6) & 127] |= uint64_t(1) << (H & 63);
  }
  bool bloomTest(uintptr_t WordKey) const {
    const uint64_t H = bloomHash(WordKey);
    return (Bloom[(H >> 6) & 127] >> (H & 63)) & 1;
  }

  static uint64_t hashAddr(uintptr_t Addr) {
    uint64_t X = static_cast<uint64_t>(Addr);
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdULL;
    X ^= X >> 29;
    return X;
  }

  std::vector<Entry> Entries;
  std::vector<uint8_t> Data;
  /// Open-addressing index: newest entry per start address. -1 marks a
  /// free slot.
  std::vector<int32_t> Slots;
  size_t Mask = 0;
  /// Largest entry recorded below the LargeEntries threshold; bounds the
  /// windowed enclosing-entry probe in lookupSlow.
  size_t MaxSmallEntry = 0;
  /// 8192-bit word-granularity bloom filter backing mayContain(). Entries
  /// wider than 64 bytes set LargeEntries instead of individual bits.
  uint64_t Bloom[128] = {};
  bool LargeEntries = false;
  /// [lowest entry start, highest entry end) byte span of the entries.
  uintptr_t SpanLo = UINTPTR_MAX;
  uintptr_t SpanHi = 0;
};

} // namespace alter

#endif // ALTER_MEMORY_WRITELOG_H
