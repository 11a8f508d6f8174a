//===- runtime/ConflictDetector.h - Commit-time validation ------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Commit-time conflict validation (§4.2). A transaction validating under a
/// policy is checked against the write sets of the transactions that
/// *committed before it* but after the snapshot it executed against:
///
///   FULL: fail if (reads ∪ writes) ∩ earlier writes ≠ ∅
///   RAW : fail if reads ∩ earlier writes ≠ ∅  (conflict serializability)
///   WAW : fail if writes ∩ earlier writes ≠ ∅ (snapshot isolation)
///   NONE: always commit
///
/// Two interfaces expose the same policies:
///
///  - the ROUND interface (hasConflict / recordCommit / resetRound) for the
///    barriered engines, where every transaction in a round shares one
///    snapshot and validates against the union of the round's earlier
///    committers;
///  - the EPOCH interface (hasConflictSince / recordCommitEpoch /
///    pruneEpochsThrough) for the pipelined engine, where each transaction
///    carries its own snapshot sequence number and validates against
///    exactly the commits that retired after it forked.
///
/// Every set-vs-set check is exact, as in §4.1: it merges the two sets'
/// sorted word runs (AccessSet), skipping runs that end before the other
/// set's current one, and returns the lowest shared word as the witness on
/// conflict. The round union and the epochs hold runs too, so recording a
/// commit is one merge.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_CONFLICTDETECTOR_H
#define ALTER_RUNTIME_CONFLICTDETECTOR_H

#include "memory/AccessSet.h"
#include "runtime/RuntimeParams.h"

#include <cstdint>
#include <deque>

namespace alter {

/// Validation bookkeeping for one executor run: accumulates committed write
/// sets (as a round union or as per-commit epochs) and answers conflict
/// queries against them.
class ConflictDetector {
public:
  explicit ConflictDetector(ConflictPolicy Policy) : Policy(Policy) {}

  //===--------------------------------------------------------------------===
  // Round interface (barriered engines)
  //===--------------------------------------------------------------------===

  /// True if a transaction with \p Reads / \p Writes conflicts with the
  /// committers recorded so far this round.
  bool hasConflict(const AccessSet &Reads, const AccessSet &Writes) const;

  /// Records a committer's write set for subsequent queries.
  void recordCommit(const AccessSet &Writes);

  /// Forgets this round's committers (call at the round barrier).
  void resetRound();

  //===--------------------------------------------------------------------===
  // Epoch interface (pipelined engine)
  //===--------------------------------------------------------------------===

  /// Sequence number of the most recent epoch commit; a transaction forked
  /// now must validate against every commit with a larger sequence.
  uint64_t commitSeq() const { return CommitSeqCounter; }

  /// Records one committer's write set as a new epoch and returns its
  /// sequence number.
  uint64_t recordCommitEpoch(const AccessSet &Writes);

  /// True if a transaction that forked at \p SnapshotSeq conflicts with any
  /// epoch committed after that point.
  bool hasConflictSince(uint64_t SnapshotSeq, const AccessSet &Reads,
                        const AccessSet &Writes) const;

  /// Drops epochs with sequence <= \p Seq: call with the minimum snapshot
  /// sequence across in-flight transactions, which no future validation can
  /// reach behind.
  void pruneEpochsThrough(uint64_t Seq);

  //===--------------------------------------------------------------------===
  // Statistics
  //===--------------------------------------------------------------------===

  /// Words compared by conflict checks so far (cost-model input): the
  /// smaller set's distinct-word count for every check of two non-empty
  /// sets, the cost of §4.1's array-against-hash-set probe.
  uint64_t wordsChecked() const { return WordsChecked; }

  /// Active policy.
  ConflictPolicy policy() const { return Policy; }

  /// Witness of the most recent conflicting query: the lowest word key shared by
  /// the transaction's checked set and the committed writes (0 when the
  /// last query found no conflict). Conflict attribution resolves it to a
  /// granule and an allocation-site label. Valid until the next
  /// hasConflict/hasConflictSince call.
  uintptr_t lastConflictWord() const { return LastConflictWord; }

private:
  /// One exact check of two sets, with stats accounting.
  bool setsConflict(const AccessSet &A, const AccessSet &B) const;

  /// Policy dispatch for one candidate against one committed write set.
  bool conflictsWith(const AccessSet &Reads, const AccessSet &Writes,
                     const AccessSet &CommittedSet) const;

  struct Epoch {
    uint64_t Seq;
    AccessSet Writes;
  };

  ConflictPolicy Policy;
  /// Union of this round's committed write sets (round interface). Using
  /// the union is equivalent to checking each earlier committer separately
  /// and cheaper.
  AccessSet CommittedWrites;
  /// Per-commit write sets in commit order (epoch interface).
  std::deque<Epoch> Epochs;
  uint64_t CommitSeqCounter = 0;
  mutable uint64_t WordsChecked = 0;
  mutable uintptr_t LastConflictWord = 0;
};

} // namespace alter

#endif // ALTER_RUNTIME_CONFLICTDETECTOR_H
