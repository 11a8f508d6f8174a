//===- memory/AccessSet.cpp -----------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memory/AccessSet.h"

#include <algorithm>
#include <cassert>

using namespace alter;

namespace {
constexpr size_t InitialCapacity = 64; // must be a power of two
} // namespace

AccessSet::AccessSet() : Table(InitialCapacity, EmptyKey) {
  Mask = InitialCapacity - 1;
}

void AccessSet::insertRange(const void *Addr, size_t Size) {
  if (Size == 0)
    return;
  const uintptr_t First = wordKey(Addr);
  const uintptr_t Last =
      wordKey(static_cast<const char *>(Addr) + Size - 1);
  for (uintptr_t Key = First; Key <= Last; ++Key)
    insertKey(Key);
}

bool AccessSet::insertKey(uintptr_t Key) {
  assert(Key != EmptyKey && "access in the first word of the address space");
  if (Words.size() * 4 >= Table.size() * 3)
    grow();
  size_t Slot = hashKey(Key) & Mask;
  while (Table[Slot] != EmptyKey) {
    if (Table[Slot] == Key)
      return false;
    Slot = (Slot + 1) & Mask;
  }
  Table[Slot] = Key;
  Words.push_back(Key);
  return true;
}

bool AccessSet::containsKey(uintptr_t Key) const {
  size_t Slot = hashKey(Key) & Mask;
  while (Table[Slot] != EmptyKey) {
    if (Table[Slot] == Key)
      return true;
    Slot = (Slot + 1) & Mask;
  }
  return false;
}

void AccessSet::grow() {
  const size_t NewCapacity = Table.size() * 2;
  std::vector<uintptr_t> NewTable(NewCapacity, EmptyKey);
  const size_t NewMask = NewCapacity - 1;
  for (uintptr_t Key : Words) {
    size_t Slot = hashKey(Key) & NewMask;
    while (NewTable[Slot] != EmptyKey)
      Slot = (Slot + 1) & NewMask;
    NewTable[Slot] = Key;
  }
  Table = std::move(NewTable);
  Mask = NewMask;
}

bool AccessSet::intersects(const AccessSet &Other) const {
  return firstCommonWord(Other) != EmptyKey;
}

uintptr_t AccessSet::firstCommonWord(const AccessSet &Other) const {
  // Probe the smaller array against the larger hash table, mirroring the
  // paper's array-vs-set conflict check between processes.
  const AccessSet &Small = sizeWords() <= Other.sizeWords() ? *this : Other;
  const AccessSet &Large = sizeWords() <= Other.sizeWords() ? Other : *this;
  for (uintptr_t Key : Small.Words)
    if (Large.containsKey(Key))
      return Key;
  return EmptyKey;
}

void AccessSet::unionWith(const AccessSet &Other) {
  for (uintptr_t Key : Other.Words)
    insertKey(Key);
}

size_t AccessSet::memoryFootprintBytes() const {
  return (Table.capacity() + Words.capacity()) * sizeof(uintptr_t);
}

void AccessSet::clear() {
  std::fill(Table.begin(), Table.end(), EmptyKey);
  Words.clear();
}

void AccessSet::insertWords(const uintptr_t *Keys, size_t Count) {
  for (size_t I = 0; I != Count; ++I)
    insertKey(Keys[I]);
}
