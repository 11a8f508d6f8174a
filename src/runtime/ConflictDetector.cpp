//===- runtime/ConflictDetector.cpp ---------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ConflictDetector.h"

#include "support/Error.h"

#include <algorithm>

using namespace alter;

bool ConflictDetector::setsConflict(const AccessSet &A,
                                    const AccessSet &B) const {
  if (A.empty() || B.empty())
    return false;
  // The check probes the smaller array against the larger table.
  WordsChecked += std::min(A.sizeWords(), B.sizeWords());
  const uintptr_t Witness = A.firstCommonWord(B);
  if (Witness == 0)
    return false;
  LastConflictWord = Witness;
  return true;
}

bool ConflictDetector::conflictsWith(const AccessSet &Reads,
                                     const AccessSet &Writes,
                                     const AccessSet &CommittedSet) const {
  switch (Policy) {
  case ConflictPolicy::NONE:
    return false;
  case ConflictPolicy::RAW:
    return setsConflict(Reads, CommittedSet);
  case ConflictPolicy::WAW:
    return setsConflict(Writes, CommittedSet);
  case ConflictPolicy::FULL:
    return setsConflict(Reads, CommittedSet) ||
           setsConflict(Writes, CommittedSet);
  }
  ALTER_UNREACHABLE("covered switch");
}

bool ConflictDetector::hasConflict(const AccessSet &Reads,
                                   const AccessSet &Writes) const {
  LastConflictWord = 0;
  return conflictsWith(Reads, Writes, CommittedWrites);
}

void ConflictDetector::recordCommit(const AccessSet &Writes) {
  if (Policy == ConflictPolicy::NONE)
    return;
  CommittedWrites.unionWith(Writes);
}

void ConflictDetector::resetRound() { CommittedWrites.clear(); }

uint64_t ConflictDetector::recordCommitEpoch(const AccessSet &Writes) {
  ++CommitSeqCounter;
  // NONE never validates, so storing epochs would only burn memory.
  if (Policy != ConflictPolicy::NONE && !Writes.empty())
    Epochs.push_back({CommitSeqCounter, Writes});
  return CommitSeqCounter;
}

bool ConflictDetector::hasConflictSince(uint64_t SnapshotSeq,
                                        const AccessSet &Reads,
                                        const AccessSet &Writes) const {
  LastConflictWord = 0;
  if (Policy == ConflictPolicy::NONE)
    return false;
  // Epochs is ordered by sequence; only commits the transaction missed
  // (retired after its fork snapshot) can conflict with it.
  for (const Epoch &E : Epochs) {
    if (E.Seq <= SnapshotSeq)
      continue;
    if (conflictsWith(Reads, Writes, E.Writes))
      return true;
  }
  return false;
}

void ConflictDetector::pruneEpochsThrough(uint64_t Seq) {
  while (!Epochs.empty() && Epochs.front().Seq <= Seq)
    Epochs.pop_front();
}
