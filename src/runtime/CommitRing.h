//===- runtime/CommitRing.h - Shared-memory SPSC commit ring ----*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-producer/single-consumer byte ring in MAP_SHARED anonymous
/// memory, carrying one worker slot's framed commit records from a
/// forked child to the parent without crossing a kernel pipe. The mapping
/// is created by the parent before the worker-pool template forks, so the
/// template and every re-forked child inherit the same physical pages; a
/// child "ships" its commit message by memcpy into the ring and a 1-byte
/// doorbell on a side pipe (see WorkerPool.h), which is what keeps the
/// executors' poll(2) event loops unchanged.
///
/// Layout: one cache-line-aligned header (free-running Head/Tail counters)
/// followed by a power-of-two data area. Head is advanced only by the
/// producer (child), Tail only by the consumer (parent); both are
/// std::atomic<uint64_t> with acquire/release ordering, which is all SPSC
/// needs. Records have no framing of their own — the commit frame
/// (magic | length | CRC32) already delimits and protects them, so the
/// parent can detect a complete record (wireFrameLooksComplete) and reject
/// a torn or corrupted one through the same checked decode path as the
/// pipe transport.
///
/// Backpressure: a message larger than the free space is published in
/// pieces (pushSome), the producer spinning with a short sleep until the
/// consumer drains. The non-blocking pushSome primitive is exposed so
/// wraparound and full-ring behavior are testable single-threaded.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_COMMITRING_H
#define ALTER_RUNTIME_COMMITRING_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace alter {

/// Doorbell-byte protocol for the ring transport (CommitRing + WorkerPool).
/// The high two bits carry the event, the low six bits an attempt tag that
/// the parent matches against the slot's current fork attempt, so a stale
/// doorbell from a previous occupant of the slot is dropped instead of
/// being mistaken for progress of the current child.
constexpr uint8_t RingDoorbellTagMask = 0x3f;
constexpr uint8_t RingDoorbellKindMask = 0xc0;
/// Child: the record is fully published and the child is now resident,
/// blocked on its work pipe awaiting another chunk (or a kill). Completes
/// the record even when an injected truncation keeps the frame from ever
/// looking whole. Always the child's LAST doorbell for a chunk — nothing
/// with this tag follows it, which is what lets the parent redispatch the
/// same child under the same tag without racing stale bytes.
constexpr uint8_t RingDoorbellFinish = 0x00;
/// Child: bytes were published into the ring.
constexpr uint8_t RingDoorbellData = 0x40;
/// Template: the child was reaped after a clean exit(0).
constexpr uint8_t RingDoorbellClean = 0x80;
/// Template: the child was reaped after a signal or nonzero exit.
constexpr uint8_t RingDoorbellAbnormal = 0xc0;

/// SPSC byte ring in shared anonymous memory. Created before fork; both
/// sides use the same object (the parent's copy and the child's COW copy
/// point at the same MAP_SHARED pages).
class CommitRing {
public:
  /// Per-slot capacity of the fork engines' rings.
  static constexpr size_t DefaultCapacity = 1 << 20;

  /// Maps a ring with at least \p CapacityBytes of data area (rounded up
  /// to a power of two, minimum one page). An mmap failure (ENOMEM) does
  /// NOT abort: the ring comes up with valid() == false and every creation
  /// site degrades — the pool falls back to the cold pipe transport, a
  /// stage worker fails its (contained) fork. Callers must check valid()
  /// before use; the data-path methods assume a valid ring.
  explicit CommitRing(size_t CapacityBytes = DefaultCapacity);
  ~CommitRing();

  /// True when the shared mapping exists. False after an mmap failure —
  /// the contained resource-fault outcome, never a crash.
  bool valid() const { return Hdr != nullptr; }

  CommitRing(const CommitRing &) = delete;
  CommitRing &operator=(const CommitRing &) = delete;

  /// Producer side: copies at most \p Size bytes of \p Data into free
  /// space and returns how many were accepted (0 when full). Never blocks.
  size_t pushSome(const uint8_t *Data, size_t Size);

  /// Producer side: publishes all of \p Data, spinning with a short sleep
  /// while the ring is full. After each accepted piece \p OnProgress is
  /// invoked (the child rings its doorbell there, so the parent keeps
  /// draining and a message larger than the ring cannot deadlock).
  /// \p OnBackoff is invoked before each full-ring backoff sleep — the
  /// metrics hook that counts and times ring backpressure without putting
  /// a clock read on the uncontended path.
  template <typename Fn, typename BackoffFn>
  void pushAll(const uint8_t *Data, size_t Size, Fn &&OnProgress,
               BackoffFn &&OnBackoff) {
    size_t Off = 0;
    while (Off != Size) {
      const size_t N = pushSome(Data + Off, Size - Off);
      if (N == 0) {
        OnBackoff();
        backoff();
        continue;
      }
      Off += N;
      OnProgress();
    }
  }

  template <typename Fn>
  void pushAll(const uint8_t *Data, size_t Size, Fn &&OnProgress) {
    pushAll(Data, Size, static_cast<Fn &&>(OnProgress), [] {});
  }

  /// Consumer side: moves every available byte into \p Out (appending) and
  /// returns how many were taken.
  size_t drainInto(std::vector<uint8_t> &Out);

  /// Bytes currently readable.
  size_t used() const;

  /// Data-area size in bytes.
  size_t capacity() const { return Cap; }

  /// Resets Head/Tail to empty. Only legal while no producer is active
  /// (the parent calls it between chunk attempts, after the previous
  /// child's record was fully consumed or its child reaped).
  void reset();

private:
  struct Header {
    alignas(64) std::atomic<uint64_t> Head; // producer cursor (free-running)
    alignas(64) std::atomic<uint64_t> Tail; // consumer cursor (free-running)
  };

  static void backoff();

  Header *Hdr = nullptr;
  uint8_t *Data = nullptr;
  size_t Cap = 0;
  size_t MapBytes = 0;
};

} // namespace alter

#endif // ALTER_RUNTIME_COMMITRING_H
