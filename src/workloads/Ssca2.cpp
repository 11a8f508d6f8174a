//===- workloads/Ssca2.cpp ------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Ssca2.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>

using namespace alter;

void Ssca2Workload::setUp(size_t Index) {
  assert(Index < numInputs() && "input index out of range");
  const int Scale = Index == 0 ? 11 : 13;
  NumVertices = int64_t(1) << Scale;
  const int64_t NumEdges = NumVertices * 8;

  // R-MAT-flavored skew: vertex ids are drawn as the minimum of two
  // uniforms, concentrating degree mass on low ids (hub vertices).
  Xoshiro256StarStar Rng(0x55CA2 + static_cast<uint64_t>(Scale));
  EdgeSrc.assign(static_cast<size_t>(NumEdges), 0);
  EdgeDst.assign(static_cast<size_t>(NumEdges), 0);
  auto SkewedVertex = [&]() {
    const uint64_t A = Rng.nextBounded(static_cast<uint64_t>(NumVertices));
    const uint64_t B = Rng.nextBounded(static_cast<uint64_t>(NumVertices));
    const uint64_t C = Rng.nextBounded(static_cast<uint64_t>(NumVertices));
    const uint64_t D = Rng.nextBounded(static_cast<uint64_t>(NumVertices));
    return static_cast<int32_t>(std::min({A, B, C, D}));
  };
  for (int64_t E = 0; E != NumEdges; ++E) {
    EdgeSrc[static_cast<size_t>(E)] = SkewedVertex();
    EdgeDst[static_cast<size_t>(E)] = static_cast<int32_t>(
        Rng.nextBounded(static_cast<uint64_t>(NumVertices)));
  }

  // Degree count + exclusive scan (kernel 1's first loop; sequential and
  // not annotated, like the paper's focus on the second loop).
  std::vector<int64_t> Degree(static_cast<size_t>(NumVertices), 0);
  for (int32_t Src : EdgeSrc)
    ++Degree[static_cast<size_t>(Src)];
  Offset.assign(static_cast<size_t>(NumVertices) + 1, 0);
  for (int64_t V = 0; V != NumVertices; ++V)
    Offset[static_cast<size_t>(V) + 1] =
        Offset[static_cast<size_t>(V)] + Degree[static_cast<size_t>(V)];

  Fill.assign(static_cast<size_t>(NumVertices), 0);
  Adjacency.assign(static_cast<size_t>(NumEdges), -1);
  Weights.assign(static_cast<size_t>(NumEdges), 0);
}

/// Kernel 1 assigns each placed edge a weight drawn from a per-edge
/// pseudo-random stream (the SSCA2 spec's weight generator). The chain is
/// pure computation — the part of the loop body ALTER never instruments.
static int64_t edgeWeight(int64_t U, int64_t V, int64_t E) {
  uint64_t State = (static_cast<uint64_t>(U) << 40) ^
                   (static_cast<uint64_t>(V) << 16) ^
                   static_cast<uint64_t>(E);
  uint64_t Acc = 0;
  for (int Round = 0; Round != 160; ++Round) {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    Acc ^= Z ^ (Z >> 31);
  }
  return static_cast<int64_t>(Acc % 255) + 1;
}

void Ssca2Workload::run(LoopRunner &Runner) {
  LoopSpec Spec;
  Spec.Name = "ssca2.scatter";
  Spec.NumIterations = static_cast<int64_t>(EdgeSrc.size());
  Spec.Body = [this](TxnContext &Ctx, int64_t E) {
    const int32_t Src = EdgeSrc[static_cast<size_t>(E)];
    const int32_t Dst = EdgeDst[static_cast<size_t>(E)];
    Ctx.noteMemoryTraffic(128);
    // Read-modify-write of the source's fill cursor; edges that share a
    // source conflict here.
    const int64_t Cursor = Ctx.load(&Fill[static_cast<size_t>(Src)]);
    Ctx.store(&Fill[static_cast<size_t>(Src)], Cursor + 1);
    const int64_t Slot = Offset[static_cast<size_t>(Src)] + Cursor;
    Ctx.store(&Adjacency[static_cast<size_t>(Slot)], Dst);
    // Weight generation: untracked compute plus a fresh (defined-before-
    // use) store.
    Ctx.storeInit(&Weights[static_cast<size_t>(Slot)],
                  edgeWeight(Src, Dst, E));
  };
  // PS-DSWP decomposition: the fill-cursor SCC (the only cross-iteration
  // dependence) stays sequential and produces the slot index; the weight
  // generation — the dominant, pure part of the body — replicates. The
  // stages touch disjoint data (Fill/Adjacency vs Weights) and communicate
  // only through the slot token.
  Spec.Stage.First = [this](TxnContext &Ctx, int64_t E) -> uint64_t {
    const int32_t Src = EdgeSrc[static_cast<size_t>(E)];
    const int32_t Dst = EdgeDst[static_cast<size_t>(E)];
    Ctx.noteMemoryTraffic(64);
    const int64_t Cursor = Ctx.load(&Fill[static_cast<size_t>(Src)]);
    Ctx.store(&Fill[static_cast<size_t>(Src)], Cursor + 1);
    const int64_t Slot = Offset[static_cast<size_t>(Src)] + Cursor;
    Ctx.store(&Adjacency[static_cast<size_t>(Slot)], Dst);
    return static_cast<uint64_t>(Slot);
  };
  Spec.Stage.Second = [this](TxnContext &Ctx, int64_t E, uint64_t Token) {
    const size_t Slot = static_cast<size_t>(Token);
    Ctx.noteMemoryTraffic(64);
    Ctx.storeInit(&Weights[Slot],
                  edgeWeight(EdgeSrc[static_cast<size_t>(E)],
                             EdgeDst[static_cast<size_t>(E)], E));
  };
  Runner.runInner(Spec);
}

std::vector<double> Ssca2Workload::outputSignature() const {
  // Adjacency content is an unordered multiset per vertex (slot order
  // depends legally on commit order), so the signature sorts within each
  // vertex's range.
  double Filled = 0;
  double Checksum = 0;
  for (int64_t V = 0; V != NumVertices; ++V) {
    const int64_t Begin = Offset[static_cast<size_t>(V)];
    const int64_t End = Offset[static_cast<size_t>(V) + 1];
    std::vector<std::pair<int32_t, int64_t>> Range;
    for (int64_t S = Begin; S != End; ++S)
      Range.emplace_back(Adjacency[static_cast<size_t>(S)],
                         Weights[static_cast<size_t>(S)]);
    std::sort(Range.begin(), Range.end());
    for (size_t K = 0; K != Range.size(); ++K) {
      if (Range[K].first >= 0)
        ++Filled;
      Checksum += (static_cast<double>(Range[K].first) +
                   static_cast<double>(Range[K].second) * 1e-3) *
                  static_cast<double>(K % 31 + 1) *
                  static_cast<double>(V % 61 + 1);
    }
  }
  return {Filled, Checksum};
}

bool Ssca2Workload::validate(const std::vector<double> &Reference) const {
  // Every slot filled exactly once and per-vertex multisets identical.
  return outputSignature() == Reference;
}
