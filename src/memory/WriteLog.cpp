//===- memory/WriteLog.cpp ------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memory/WriteLog.h"

#include "support/Varint.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace alter;

namespace {
constexpr size_t InitialSlots = 64; // power of two
} // namespace

WriteLog::WriteLog() : Slots(InitialSlots, -1) { Mask = InitialSlots - 1; }

void WriteLog::growSlots() {
  const size_t NewCapacity = Slots.size() * 2;
  std::vector<int32_t> NewSlots(NewCapacity, -1);
  const size_t NewMask = NewCapacity - 1;
  // Re-insert newest-first so the first write per address wins the slot.
  for (size_t I = Entries.size(); I-- != 0;) {
    size_t Slot = hashAddr(Entries[I].Addr) & NewMask;
    for (;;) {
      const int32_t Existing = NewSlots[Slot];
      if (Existing < 0) {
        NewSlots[Slot] = static_cast<int32_t>(I);
        break;
      }
      if (Entries[static_cast<size_t>(Existing)].Addr == Entries[I].Addr)
        break; // a newer entry already owns this address
      Slot = (Slot + 1) & NewMask;
    }
  }
  Slots = std::move(NewSlots);
  Mask = NewMask;
}

void WriteLog::record(void *Addr, const void *Bytes, size_t Size) {
  assert(Size > 0 && "cannot record an empty store");
  const uintptr_t Key = reinterpret_cast<uintptr_t>(Addr);
  if (Size > 64) {
    LargeEntries = true;
  } else {
    if (Size > MaxSmallEntry)
      MaxSmallEntry = Size;
    const uintptr_t LastWord = (Key + Size - 1) >> 3;
    for (uintptr_t Word = Key >> 3; Word <= LastWord; ++Word)
      bloomSet(Word);
  }
  size_t Slot = hashAddr(Key) & Mask;
  for (;;) {
    const int32_t Index = Slots[Slot];
    if (Index < 0)
      break;
    Entry &E = Entries[static_cast<size_t>(Index)];
    if (E.Addr == Key) {
      if (E.Size == Size) {
        // Repeated store to the same location: update the value in place.
        std::memcpy(Data.data() + E.Offset, Bytes, Size);
        return;
      }
      // Same address, different width: append a new entry and point the
      // slot at it (apply() preserves program order).
      break;
    }
    Slot = (Slot + 1) & Mask;
  }
  if (Entries.size() * 4 >= Slots.size() * 3) {
    growSlots();
    // Re-find the slot in the grown table.
    Slot = hashAddr(Key) & Mask;
    while (Slots[Slot] >= 0 &&
           Entries[static_cast<size_t>(Slots[Slot])].Addr != Key)
      Slot = (Slot + 1) & Mask;
  }
  Entries.push_back({Key, Size, Data.size()});
  SpanLo = std::min(SpanLo, Key);
  SpanHi = std::max<uintptr_t>(SpanHi, Key + Size);
  const uint8_t *Src = static_cast<const uint8_t *>(Bytes);
  Data.insert(Data.end(), Src, Src + Size);
  Slots[Slot] = static_cast<int32_t>(Entries.size() - 1);
}

bool WriteLog::lookupSlow(const void *Addr, void *OutBytes,
                          size_t Size) const {
  const uintptr_t Key = reinterpret_cast<uintptr_t>(Addr);
  size_t Slot = hashAddr(Key) & Mask;
  for (;;) {
    const int32_t Index = Slots[Slot];
    if (Index < 0)
      break;
    const Entry &E = Entries[static_cast<size_t>(Index)];
    if (E.Addr == Key) {
      if (E.Size == Size) {
        std::memcpy(OutBytes, Data.data() + E.Offset, Size);
        return true;
      }
      break; // fall through to the containment scan
    }
    Slot = (Slot + 1) & Mask;
  }
  // Rare path: the read may fall inside a larger buffered object (e.g. a
  // field read after a whole-object store). An enclosing small entry must
  // start within MaxSmallEntry bytes below the read, so probing the
  // candidate start addresses beats scanning the log. Instrumented stores
  // start at type-aligned addresses, so 4-byte steps cover them.
  if (!LargeEntries) {
    if (MaxSmallEntry == 0)
      return false;
    for (uintptr_t Back = 4; Back + Size <= MaxSmallEntry; Back += 4) {
      const uintptr_t Start = Key - Back;
      size_t Probe = hashAddr(Start) & Mask;
      for (;;) {
        const int32_t Index = Slots[Probe];
        if (Index < 0)
          break;
        const Entry &E = Entries[static_cast<size_t>(Index)];
        if (E.Addr == Start) {
          if (Key + Size <= E.Addr + E.Size) {
            std::memcpy(OutBytes, Data.data() + E.Offset + (Key - E.Addr),
                        Size);
            return true;
          }
          break;
        }
        Probe = (Probe + 1) & Mask;
      }
    }
    return false;
  }
  // Logs holding large entries (whole-row writeRange) fall back to the
  // scan; such transactions read their rows back via readRange's overlay,
  // so this path stays cold.
  for (size_t I = Entries.size(); I-- != 0;) {
    const Entry &E = Entries[I];
    if (Key >= E.Addr && Key + Size <= E.Addr + E.Size) {
      std::memcpy(OutBytes, Data.data() + E.Offset + (Key - E.Addr), Size);
      return true;
    }
  }
  return false;
}

void WriteLog::recordUndo(void *Addr, size_t Size) {
  assert(Size > 0 && "cannot record an empty store");
  const uintptr_t Key = reinterpret_cast<uintptr_t>(Addr);
  // Fast path: the location already has its committed bytes saved.
  size_t Slot = hashAddr(Key) & Mask;
  for (;;) {
    const int32_t Index = Slots[Slot];
    if (Index < 0)
      break;
    const Entry &E = Entries[static_cast<size_t>(Index)];
    if (E.Addr == Key) {
      if (E.Size == Size)
        return; // first write already captured the snapshot
      break;
    }
    Slot = (Slot + 1) & Mask;
  }
  record(Addr, Addr, Size);
}

void WriteLog::swapWithMemory() {
  // Newest-first: overlapping entries unwind like a stack, leaving memory
  // exactly at the committed snapshot and each entry holding the value
  // memory had when the NEXT-newer entry was recorded — which is what a
  // forward apply() needs to rebuild the final state.
  uint8_t Scratch[64];
  for (size_t I = Entries.size(); I-- != 0;) {
    const Entry &E = Entries[I];
    uint8_t *Mem = reinterpret_cast<uint8_t *>(E.Addr);
    uint8_t *Buf = Data.data() + E.Offset;
    if (E.Size <= sizeof(Scratch)) {
      std::memcpy(Scratch, Mem, E.Size);
      std::memcpy(Mem, Buf, E.Size);
      std::memcpy(Buf, Scratch, E.Size);
      continue;
    }
    for (uint64_t Off = 0; Off < E.Size; Off += sizeof(Scratch)) {
      const size_t Piece =
          std::min<uint64_t>(sizeof(Scratch), E.Size - Off);
      std::memcpy(Scratch, Mem + Off, Piece);
      std::memcpy(Mem + Off, Buf + Off, Piece);
      std::memcpy(Buf + Off, Scratch, Piece);
    }
  }
}

void WriteLog::captureRedo() {
  for (const Entry &E : Entries)
    std::memcpy(Data.data() + E.Offset, reinterpret_cast<void *>(E.Addr),
                E.Size);
}

void WriteLog::apply() const {
  for (const Entry &E : Entries)
    std::memcpy(reinterpret_cast<void *>(E.Addr), Data.data() + E.Offset,
                E.Size);
}

void WriteLog::overlayRange(const void *Addr, size_t Size, void *Buf) const {
  const uintptr_t Lo = reinterpret_cast<uintptr_t>(Addr);
  const uintptr_t Hi = Lo + Size;
  if (Hi <= SpanLo || Lo >= SpanHi)
    return; // no entry can overlap
  for (const Entry &E : Entries) {
    const uintptr_t ELo = E.Addr;
    const uintptr_t EHi = E.Addr + E.Size;
    if (EHi <= Lo || ELo >= Hi)
      continue;
    const uintptr_t CopyLo = ELo > Lo ? ELo : Lo;
    const uintptr_t CopyHi = EHi < Hi ? EHi : Hi;
    std::memcpy(static_cast<char *>(Buf) + (CopyLo - Lo),
                Data.data() + E.Offset + (CopyLo - ELo), CopyHi - CopyLo);
  }
}

void WriteLog::clear() {
  if (Entries.empty())
    return;
  Entries.clear();
  Data.clear();
  std::fill(Slots.begin(), Slots.end(), -1);
  std::fill(std::begin(Bloom), std::end(Bloom), 0);
  LargeEntries = false;
  MaxSmallEntry = 0;
  SpanLo = UINTPTR_MAX;
  SpanHi = 0;
}

size_t WriteLog::serializedSize() const {
  return sizeof(uint64_t) + Entries.size() * 2 * sizeof(uint64_t) +
         Data.size();
}

void WriteLog::serializeCompact(std::vector<uint8_t> &Out) const {
  appendVarint(Out, Entries.size());
  uintptr_t PrevAddr = 0;
  for (const Entry &E : Entries) {
    appendVarint(Out, zigzagEncode(static_cast<int64_t>(E.Addr) -
                                   static_cast<int64_t>(PrevAddr)));
    appendVarint(Out, E.Size);
    PrevAddr = E.Addr;
  }
  Out.insert(Out.end(), Data.begin(), Data.end());
}

bool WriteLog::deserializeCompactChecked(const uint8_t *Buf, size_t Len,
                                         WriteLog &Out) {
  WriteLog Log;
  const uint8_t *P = Buf;
  const uint8_t *End = Buf + Len;
  uint64_t Count;
  if (!readVarint(P, End, Count))
    return false;
  // Every entry needs at least two table bytes plus one payload byte, so a
  // count beyond Len is corrupt; rejecting it here bounds the reserve().
  if (Count > Len)
    return false;
  std::vector<std::pair<uint64_t, uint64_t>> Raw;
  Raw.reserve(static_cast<size_t>(Count));
  uint64_t PayloadBytes = 0;
  int64_t PrevAddr = 0;
  for (uint64_t I = 0; I != Count; ++I) {
    uint64_t Delta, Size;
    if (!readVarint(P, End, Delta) || !readVarint(P, End, Size))
      return false;
    if (Size == 0 || Size > Len || PayloadBytes + Size < PayloadBytes)
      return false;
    PrevAddr += zigzagDecode(Delta);
    Raw.emplace_back(static_cast<uint64_t>(PrevAddr), Size);
    PayloadBytes += Size;
  }
  if (static_cast<uint64_t>(End - P) < PayloadBytes)
    return false;
  for (auto [Addr, Size] : Raw) {
    Log.record(reinterpret_cast<void *>(static_cast<uintptr_t>(Addr)), P,
               static_cast<size_t>(Size));
    P += Size;
  }
  Out = std::move(Log);
  return true;
}
