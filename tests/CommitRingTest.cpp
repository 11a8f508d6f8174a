//===- tests/CommitRingTest.cpp - Shared-memory commit ring ---------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SPSC shared-memory ring underneath the warm-pool transport:
/// wraparound across record boundaries, full-ring backpressure, frame
/// completion detection (wireFrameLooksComplete), rejection of torn and
/// corrupted records through the checked decode, and cross-process
/// visibility of the MAP_SHARED pages (a forked producer, the real
/// deployment shape).
///
//===----------------------------------------------------------------------===//

#include "runtime/CommitRing.h"
#include "runtime/TxnWire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace alter;

namespace {

std::vector<uint8_t> patternBytes(size_t N, uint8_t Seed) {
  std::vector<uint8_t> Out(N);
  for (size_t I = 0; I != N; ++I)
    Out[I] = static_cast<uint8_t>(Seed + I * 7);
  return Out;
}

/// A minimal well-formed frame header (magic, PayloadLen, CRC32) followed
/// by PayloadLen payload bytes. The CRC is real, so the only reason the
/// full decode would reject it is structural (which these tests don't
/// reach — they stop at frame completion).
std::vector<uint8_t> framedRecord(uint64_t PayloadLen) {
  const std::vector<uint8_t> Payload(static_cast<size_t>(PayloadLen), 0x5a);
  const uint64_t Header[3] = {CommitFrameMagic, PayloadLen,
                              wireCrc32(Payload.data(), Payload.size())};
  std::vector<uint8_t> Out(sizeof(Header) + Payload.size());
  std::memcpy(Out.data(), Header, sizeof(Header));
  std::copy(Payload.begin(), Payload.end(), Out.begin() + sizeof(Header));
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===
// Capacity and basic transfer
//===----------------------------------------------------------------------===

TEST(CommitRingTest, CapacityRoundsUpToPowerOfTwoPages) {
  CommitRing Tiny(1);
  EXPECT_GE(Tiny.capacity(), static_cast<size_t>(::sysconf(_SC_PAGESIZE)));
  CommitRing Odd(5000);
  EXPECT_EQ(Odd.capacity() & (Odd.capacity() - 1), 0u) << "power of two";
  EXPECT_GE(Odd.capacity(), 5000u);
}

TEST(CommitRingTest, BytesRoundTripInOrder) {
  CommitRing Ring(4096);
  const std::vector<uint8_t> In = patternBytes(1000, 3);
  EXPECT_EQ(Ring.pushSome(In.data(), In.size()), In.size());
  EXPECT_EQ(Ring.used(), In.size());
  std::vector<uint8_t> Out;
  EXPECT_EQ(Ring.drainInto(Out), In.size());
  EXPECT_EQ(Out, In);
  EXPECT_EQ(Ring.used(), 0u);
}

TEST(CommitRingTest, WraparoundPreservesRecordBytes) {
  // Push/drain records sized to land the cursors on awkward offsets, long
  // enough that Head and Tail wrap the 4 KiB data area many times. Every
  // record must come back byte-identical — the memcpy split at the wrap
  // point is exactly what this exercises.
  CommitRing Ring(4096);
  std::vector<uint8_t> Out;
  for (int R = 0; R != 200; ++R) {
    const size_t N = 333 + static_cast<size_t>(R * 61 % 2900);
    const std::vector<uint8_t> In =
        patternBytes(N, static_cast<uint8_t>(R * 17));
    ASSERT_EQ(Ring.pushSome(In.data(), In.size()), In.size())
        << "record " << R << " fits an empty ring";
    Out.clear();
    ASSERT_EQ(Ring.drainInto(Out), In.size());
    ASSERT_EQ(Out, In) << "record " << R << " must survive the wrap";
  }
}

TEST(CommitRingTest, FullRingBackpressureAndPartialAccept) {
  CommitRing Ring(4096);
  const size_t Cap = Ring.capacity();
  const std::vector<uint8_t> Fill = patternBytes(Cap, 9);
  EXPECT_EQ(Ring.pushSome(Fill.data(), Fill.size()), Cap);
  // Full: nothing more is accepted, nothing blocks.
  uint8_t Extra = 0xff;
  EXPECT_EQ(Ring.pushSome(&Extra, 1), 0u);
  // Partial drain opens exactly that much space again.
  std::vector<uint8_t> Out;
  EXPECT_EQ(Ring.drainInto(Out), Cap);
  const std::vector<uint8_t> Over = patternBytes(Cap + 100, 21);
  EXPECT_EQ(Ring.pushSome(Over.data(), Over.size()), Cap)
      << "an oversized push accepts only the free space";
  Out.clear();
  EXPECT_EQ(Ring.drainInto(Out), Cap);
  EXPECT_TRUE(std::equal(Out.begin(), Out.end(), Over.begin()));
}

TEST(CommitRingTest, PushAllDeliversMessagesLargerThanTheRing) {
  // The deployment-critical property: a commit message larger than the
  // ring still goes through, because OnProgress lets the consumer drain
  // between pieces. Simulate the parent inside OnProgress.
  CommitRing Ring(4096);
  const std::vector<uint8_t> In = patternBytes(3 * 4096 + 777, 5);
  std::vector<uint8_t> Out;
  Ring.pushAll(In.data(), In.size(), [&] { Ring.drainInto(Out); });
  Ring.drainInto(Out);
  EXPECT_EQ(Out, In);
}

TEST(CommitRingTest, ResetEmptiesTheRing) {
  CommitRing Ring(4096);
  const std::vector<uint8_t> In = patternBytes(100, 1);
  EXPECT_EQ(Ring.pushSome(In.data(), In.size()), In.size());
  Ring.reset();
  EXPECT_EQ(Ring.used(), 0u);
  std::vector<uint8_t> Out;
  EXPECT_EQ(Ring.drainInto(Out), 0u);
  // And it is usable again afterwards.
  EXPECT_EQ(Ring.pushSome(In.data(), In.size()), In.size());
  EXPECT_EQ(Ring.drainInto(Out), In.size());
}

//===----------------------------------------------------------------------===
// Cross-process: the real producer is a forked child
//===----------------------------------------------------------------------===

TEST(CommitRingTest, ForkedProducerBytesAreVisibleToTheParent) {
  // The ring is created before fork, so parent and child share the same
  // MAP_SHARED pages — the exact deployment shape of the warm pool, where
  // the template's grandchildren publish into a ring the parent drains.
  CommitRing Ring(4096);
  const std::vector<uint8_t> In = patternBytes(3 * 4096 + 123, 77);
  const pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    Ring.pushAll(In.data(), In.size(), [] {});
    _exit(0);
  }
  std::vector<uint8_t> Out;
  while (Out.size() != In.size())
    Ring.drainInto(Out);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  EXPECT_EQ(Out, In);
}

//===----------------------------------------------------------------------===
// Record completion and corruption rejection
//===----------------------------------------------------------------------===

TEST(WireFrameTest, CompletionTracksTheLengthField) {
  const std::vector<uint8_t> Rec = framedRecord(500);
  // Every strict prefix is incomplete; the full record (and anything
  // beyond) is complete.
  EXPECT_FALSE(wireFrameLooksComplete(Rec.data(), 0));
  EXPECT_FALSE(wireFrameLooksComplete(Rec.data(), 23));
  EXPECT_FALSE(wireFrameLooksComplete(Rec.data(), 24));
  EXPECT_FALSE(wireFrameLooksComplete(Rec.data(), Rec.size() - 1));
  EXPECT_TRUE(wireFrameLooksComplete(Rec.data(), Rec.size()));
}

TEST(WireFrameTest, CorruptMagicCountsAsCompleteSoDecodeRejects) {
  // With a corrupt magic the length field is untrustworthy: waiting for it
  // to be satisfied could wait forever. The frame counts as complete and
  // the checked decode rejects it.
  std::vector<uint8_t> Rec = framedRecord(100);
  Rec[3] ^= 0x40;
  EXPECT_TRUE(wireFrameLooksComplete(Rec.data(), 24));
  LoopSpec Spec;
  RuntimeParams Params;
  ChildReport Rep;
  std::string Error;
  EXPECT_FALSE(decodeChildReport(Rec, Spec, Params, Rep, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(WireFrameTest, TornRingRecordIsRejectedByCheckedDecode) {
  // A child killed mid-publish leaves a prefix in the ring; the terminal
  // doorbell completes the channel and the decode must reject the torn
  // bytes (truncated payload => length mismatch).
  const std::vector<uint8_t> Rec = framedRecord(300);
  CommitRing Ring(4096);
  ASSERT_EQ(Ring.pushSome(Rec.data(), Rec.size() - 57), Rec.size() - 57);
  std::vector<uint8_t> Torn;
  Ring.drainInto(Torn);
  LoopSpec Spec;
  RuntimeParams Params;
  ChildReport Rep;
  std::string Error;
  EXPECT_FALSE(decodeChildReport(Torn, Spec, Params, Rep, Error));
}

TEST(WireFrameTest, BitflippedRingRecordIsRejectedByCrc) {
  // A complete frame with one payload bit flipped passes the completion
  // check (the length is intact) but must fail the CRC in decode.
  std::vector<uint8_t> Rec = framedRecord(300);
  Rec[24 + 123] ^= 0x10;
  EXPECT_TRUE(wireFrameLooksComplete(Rec.data(), Rec.size()));
  LoopSpec Spec;
  RuntimeParams Params;
  ChildReport Rep;
  std::string Error;
  EXPECT_FALSE(decodeChildReport(Rec, Spec, Params, Rep, Error));
  EXPECT_NE(Error.find("CRC"), std::string::npos)
      << "rejection reason should name the CRC, got: " << Error;
}
