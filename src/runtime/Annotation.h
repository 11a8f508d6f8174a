//===- runtime/Annotation.h - The ALTER annotation language -----*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ALTER annotation language of paper §3 (Figure 3):
///
/// \code
///   A := (P, R)
///   P := OutOfOrder | StaleReads
///   R := ε | R ; R | (var, O)
///   O := + | × | max | min | ∧ | ∨
/// \endcode
///
/// An annotation designates a loop whose iterations execute as transactions.
/// `OutOfOrder` permits reordering under conflict serializability;
/// `StaleReads` additionally permits reads from a consistent but stale
/// snapshot (snapshot isolation). Reductions name variables whose updates
/// are merged commutatively/associatively at commit. A per-loop chunk
/// factor groups `cf` consecutive iterations into one transaction.
///
/// This header also provides a textual round-trip syntax mirroring the
/// paper's examples, e.g. "[StaleReads + Reduction(delta, +)]".
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_ANNOTATION_H
#define ALTER_RUNTIME_ANNOTATION_H

#include <optional>
#include <string>
#include <vector>

namespace alter {

/// The parallelism policy P of an annotation.
enum class ParallelPolicy {
  OutOfOrder, ///< conflict serializability; iterations may be reordered
  StaleReads, ///< snapshot isolation; reads may come from a stale snapshot
};

/// The six reduction operators the runtime supports (§4.2). Plus and Mul
/// commit a delta; Max, Min, And, Or are idempotent and commit by merging.
enum class ReduceOp { Plus, Mul, Max, Min, And, Or };

/// Returns the surface syntax of \p Op ("+", "*", "max", ...).
const char *reduceOpName(ReduceOp Op);

/// Parses "+", "*"/"x", "max", "min", "&"/"and", "|"/"or".
std::optional<ReduceOp> parseReduceOp(const std::string &Text);

/// One (var, op) reduction clause. The variable is referenced by name; the
/// loop specification binds names to storage locations.
struct ReductionClause {
  std::string Var;
  ReduceOp Op;

  bool operator==(const ReductionClause &Other) const = default;
};

/// A complete loop annotation A := (P, R) plus the chunk factor knob the
/// paper exposes alongside the language.
struct Annotation {
  ParallelPolicy Policy = ParallelPolicy::OutOfOrder;
  std::vector<ReductionClause> Reductions;
  /// Iterations per transaction; 0 means "use the loop's default".
  int ChunkFactor = 0;

  bool operator==(const Annotation &Other) const = default;

  /// Renders the paper syntax, e.g.
  /// "[OutOfOrder + Reduction(delta, +)]".
  std::string str() const;
};

/// Returns the policy name ("OutOfOrder" or "StaleReads").
const char *parallelPolicyName(ParallelPolicy Policy);

/// Parses the paper's bracketed annotation syntax:
///   "[StaleReads]"
///   "[OutOfOrder + Reduction(delta, +)]"
///   "[StaleReads + Reduction(err, max); Reduction(n, +)]"
/// Whitespace is insignificant. Returns std::nullopt (and fills
/// \p ErrorMessage if non-null) on malformed input.
std::optional<Annotation> parseAnnotation(const std::string &Text,
                                          std::string *ErrorMessage = nullptr);

} // namespace alter

#endif // ALTER_RUNTIME_ANNOTATION_H
