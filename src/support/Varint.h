//===- support/Varint.h - LEB128 variable-length integers -------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unsigned LEB128 encoding plus the zigzag mapping for signed deltas. Used
/// by the compressed wire formats the fork executors ship over pipes: word
/// keys and write-log addresses are encoded as sorted-run / previous-entry
/// deltas, which this encoding shrinks from 8 raw bytes to 1-2 typical
/// bytes.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_SUPPORT_VARINT_H
#define ALTER_SUPPORT_VARINT_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace alter {

/// Appends the LEB128 encoding of \p V to \p Out.
inline void appendVarint(std::vector<uint8_t> &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<uint8_t>(V));
}

/// Decodes one LEB128 value from [\p P, \p End). On success advances \p P
/// past the encoding and returns true. Returns false on truncation or an
/// encoding longer than ten bytes (which cannot arise from appendVarint).
inline bool readVarint(const uint8_t *&P, const uint8_t *End, uint64_t &V) {
  uint64_t Value = 0;
  unsigned Shift = 0;
  while (P != End && Shift < 70) {
    const uint8_t Byte = *P++;
    Value |= static_cast<uint64_t>(Byte & 0x7F) << Shift;
    if (!(Byte & 0x80)) {
      V = Value;
      return true;
    }
    Shift += 7;
  }
  return false;
}

/// Maps a signed delta onto an unsigned value with small magnitudes staying
/// small (0 → 0, -1 → 1, 1 → 2, ...).
inline uint64_t zigzagEncode(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

/// Inverse of zigzagEncode.
inline int64_t zigzagDecode(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

} // namespace alter

#endif // ALTER_SUPPORT_VARINT_H
