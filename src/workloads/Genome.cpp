//===- workloads/Genome.cpp -----------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Genome.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>

using namespace alter;

namespace {
uint64_t hashSegment(const GenomeWorkload::Segment &Key) {
  uint64_t H = 0x9E3779B97F4A7C15ULL;
  for (uint64_t Word : Key) {
    H ^= Word;
    H *= 0xff51afd7ed558ccdULL;
    H ^= H >> 33;
  }
  return H;
}
} // namespace

void GenomeWorkload::setUp(size_t Index) {
  assert(Index < numInputs() && "input index out of range");
  const int64_t NumSegments = Index == 0 ? (64 << 10) : (256 << 10);
  // Heavily oversampled reads: the distinct pool is ~1/64 of the segment
  // count, so almost every loop iteration finds its segment already
  // present and bucket-head link-ins (the only conflict source) are rare —
  // the paper's Table 4 measures a 0.2% retry rate.
  const int64_t DistinctPool = NumSegments / 64;

  Xoshiro256StarStar Rng(0x6E03E + static_cast<uint64_t>(NumSegments));
  std::vector<Segment> Pool(static_cast<size_t>(DistinctPool));
  for (Segment &S : Pool)
    for (uint64_t &Word : S)
      Word = Rng.next(); // a packed 128-mer

  Segments.assign(static_cast<size_t>(NumSegments), Segment{});
  for (Segment &S : Segments)
    S = Pool[Rng.nextBounded(Pool.size())];

  Buckets.assign(static_cast<size_t>(DistinctPool) * 16, nullptr);
  Alloc = std::make_unique<AlterAllocator>(
      /*NumWorkers=*/8, /*BytesPerWorker=*/size_t(64) << 20);
}

void GenomeWorkload::run(LoopRunner &Runner) {
  LoopSpec Spec;
  Spec.Name = "genome.dedup";
  Spec.NumIterations = static_cast<int64_t>(Segments.size());
  Spec.Body = [this](TxnContext &Ctx, int64_t I) {
    const Segment &Key = Segments[static_cast<size_t>(I)];
    // Streaming traffic: the segment itself, then ~2 random cache lines:
    // bucket head, probed node.
    Ctx.noteMemoryTraffic(sizeof(Segment) + 128);
    Node **BucketHead = &Buckets[hashSegment(Key) & (Buckets.size() - 1)];
    // Probe the chain. Under OutOfOrder every hop is an instrumented read;
    // under StaleReads the probes are untracked (Table 4's 89-vs-16).
    Node *Head = Ctx.load(BucketHead);
    for (Node *N = Head; N; N = Ctx.load(&N->Next))
      if (Ctx.load(&N->Key) == Key)
        return; // duplicate
    // Insert a fresh node at the head. Two concurrent inserts into the
    // same bucket conflict on the head pointer and one retries.
    auto *Fresh = static_cast<Node *>(Ctx.allocate(sizeof(Node)));
    Ctx.storeInit(&Fresh->Key, Key);
    Ctx.storeInit(&Fresh->Next, Head);
    Ctx.store(BucketHead, Fresh);
  };
  Runner.runInner(Spec);
}

uint64_t GenomeWorkload::uniqueCount() const {
  uint64_t Count = 0;
  for (const Node *N : Buckets)
    for (; N; N = N->Next)
      ++Count;
  return Count;
}

std::vector<double> GenomeWorkload::outputSignature() const {
  // The unique-segment SET is the output; its size and an order-invariant
  // checksum identify it.
  uint64_t Count = 0;
  uint64_t Xor = 0;
  uint64_t Sum = 0;
  for (const Node *N : Buckets)
    for (; N; N = N->Next) {
      ++Count;
      Xor ^= hashSegment(N->Key);
      Sum += N->Key[0] & 0xFFFFFFFFu;
    }
  return {static_cast<double>(Count), static_cast<double>(Xor >> 11),
          static_cast<double>(Sum)};
}

bool GenomeWorkload::validate(const std::vector<double> &Reference) const {
  // Exact set equality (assertion-style, as in the paper): duplicates in
  // the table or missing segments both break the signature.
  return outputSignature() == Reference;
}
