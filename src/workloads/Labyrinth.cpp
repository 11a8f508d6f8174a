//===- workloads/Labyrinth.cpp --------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Labyrinth.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace alter;

void LabyrinthWorkload::setUp(size_t Index) {
  assert(Index < numInputs() && "input index out of range");
  // Sized so most paths stay routable: contention then shows up as
  // conflicting claims/list appends (retries), not as cheap routing
  // failures.
  const int64_t NumPaths = Index == 0 ? 64 : 128;
  DimX = Index == 0 ? 64 : 96;
  DimY = DimX;
  DimZ = Index == 0 ? 1 : 2;
  const int64_t Cells = DimX * DimY * DimZ;

  Grid.clear();
  Grid.resize(static_cast<size_t>(Cells), -1);

  Xoshiro256StarStar Rng(0x1AB5 + static_cast<uint64_t>(NumPaths));
  Endpoints.clear();
  Routed.assign(static_cast<size_t>(NumPaths), 0);
  PathList.clear();
  PathList.resize(static_cast<size_t>(NumPaths), -1);
  PathCursor = 0;
  // Sources in the left band, destinations in the right band: every route
  // crosses the middle of the maze, maximizing contention (the paper's
  // inputs are similarly congested — Labyrinth never parallelizes).
  std::vector<bool> UsedEndpoint(static_cast<size_t>(Cells), false);
  const int64_t Band = std::max<int64_t>(DimX / 4, 1);
  while (Endpoints.size() != static_cast<size_t>(NumPaths)) {
    const int64_t SrcX = static_cast<int64_t>(
        Rng.nextBounded(static_cast<uint64_t>(Band)));
    const int64_t DstX =
        DimX - 1 -
        static_cast<int64_t>(Rng.nextBounded(static_cast<uint64_t>(Band)));
    const int64_t SrcY = static_cast<int64_t>(
        Rng.nextBounded(static_cast<uint64_t>(DimY)));
    // Destinations stay near the source row: routes run roughly straight
    // across the maze instead of forming full-width walls, so congestion
    // manifests as conflicting claims rather than unroutable paths.
    const int64_t DstY = std::clamp<int64_t>(
        SrcY + static_cast<int64_t>(Rng.nextBounded(7)) - 3, 0, DimY - 1);
    const int64_t SrcZ = static_cast<int64_t>(
        Rng.nextBounded(static_cast<uint64_t>(DimZ)));
    const int64_t DstZ = static_cast<int64_t>(
        Rng.nextBounded(static_cast<uint64_t>(DimZ)));
    const int64_t Src = cellIndex(SrcX, SrcY, SrcZ);
    const int64_t Dst = cellIndex(DstX, DstY, DstZ);
    if (Src == Dst || UsedEndpoint[static_cast<size_t>(Src)] ||
        UsedEndpoint[static_cast<size_t>(Dst)])
      continue;
    UsedEndpoint[static_cast<size_t>(Src)] = true;
    UsedEndpoint[static_cast<size_t>(Dst)] = true;
    Endpoints.emplace_back(Src, Dst);
  }
}

void LabyrinthWorkload::run(LoopRunner &Runner) {
  std::fill(Routed.begin(), Routed.end(), 0);
  const int64_t Cells = DimX * DimY * DimZ;

  LoopSpec Spec;
  Spec.Name = "labyrinth.route";
  Spec.NumIterations = static_cast<int64_t>(Endpoints.size());
  Spec.Body = [this, Cells](TxnContext &Ctx, int64_t P) {
    const auto [Src, Dst] = Endpoints[static_cast<size_t>(P)];
    // The worker's scratch holds the grid snapshot and the BFS parents.
    int32_t *GridScratch =
        Ctx.scratch<int32_t>(2 * static_cast<size_t>(Cells));
    int32_t *Parent = GridScratch + Cells;
    // Lee expansion reads the whole grid occupancy: instrumented as one
    // range (allocation granularity), which is what makes read-tracking
    // policies explode on this benchmark.
    Grid.readAll(Ctx, GridScratch);
    Ctx.noteMemoryTraffic(Grid.size() * sizeof(int32_t));

    std::fill(Parent, Parent + Cells, -1);
    std::deque<int64_t> Queue;
    Queue.push_back(Src);
    Parent[static_cast<size_t>(Src)] = static_cast<int32_t>(Src);
    bool Found = false;
    while (!Queue.empty() && !Found) {
      const int64_t Cur = Queue.front();
      Queue.pop_front();
      const int64_t Z = Cur / (DimX * DimY);
      const int64_t Y = (Cur / DimX) % DimY;
      const int64_t X = Cur % DimX;
      const int64_t Neighbors[6] = {
          X > 0 ? cellIndex(X - 1, Y, Z) : -1,
          X + 1 < DimX ? cellIndex(X + 1, Y, Z) : -1,
          Y > 0 ? cellIndex(X, Y - 1, Z) : -1,
          Y + 1 < DimY ? cellIndex(X, Y + 1, Z) : -1,
          Z > 0 ? cellIndex(X, Y, Z - 1) : -1,
          Z + 1 < DimZ ? cellIndex(X, Y, Z + 1) : -1,
      };
      for (int64_t Next : Neighbors) {
        if (Next < 0 || Parent[static_cast<size_t>(Next)] >= 0)
          continue;
        if (GridScratch[static_cast<size_t>(Next)] >= 0 && Next != Dst)
          continue; // occupied
        Parent[static_cast<size_t>(Next)] = static_cast<int32_t>(Cur);
        if (Next == Dst) {
          Found = true;
          break;
        }
        Queue.push_back(Next);
      }
    }
    if (!Found)
      return; // congestion: leave the path unrouted

    // Claim the path cells; overlapping concurrent claims conflict (WAW).
    for (int64_t Cell = Dst;;
         Cell = Parent[static_cast<size_t>(Cell)]) {
      Grid.set(Ctx, static_cast<size_t>(Cell), static_cast<int32_t>(P));
      if (Cell == Src)
        break;
    }
    // Append to the shared routed-path list (STAMP keeps a global list);
    // any two successful routes in a round conflict on the cursor.
    const int64_t Slot = Ctx.load(&PathCursor);
    Ctx.store(&PathCursor, Slot + 1);
    PathList.set(Ctx, static_cast<size_t>(Slot), static_cast<int32_t>(P));
    Ctx.store(&Routed[static_cast<size_t>(P)], 1);
  };
  Runner.runInner(Spec);
}

int64_t LabyrinthWorkload::routedCount() const {
  int64_t Count = 0;
  for (int32_t R : Routed)
    Count += R;
  return Count;
}

std::vector<double> LabyrinthWorkload::outputSignature() const {
  double GridSum = 0.0;
  double Claimed = 0.0;
  for (size_t I = 0; I != Grid.size(); ++I) {
    if (Grid[I] < 0)
      continue;
    ++Claimed;
    GridSum += static_cast<double>(Grid[I]) * static_cast<double>(I % 89 + 1);
  }
  return {static_cast<double>(routedCount()), Claimed, GridSum};
}

bool LabyrinthWorkload::validate(const std::vector<double> &Reference) const {
  // Routing quality is order-sensitive; the paper never found a passing
  // annotation. The criterion is exact agreement with the sequential
  // router's outcome.
  return outputSignature() == Reference;
}
