//===- runtime/ReductionOps.h - Typed reduction values ----------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scalar reduction values and the commit-time merge formulas of §4.2:
///
///   idempotent op (max, min, ∧, ∨):  Sc(x) := Sc(x) op newSt(x)
///   op = +:                          Sc(x) := Sc(x) + (newSt(x) - oldSt(x))
///   op = ×:                          Sc(x) := Sc(x) × (newSt(x) / oldSt(x))
///
/// where Sc is the committed state and oldSt/newSt are the transaction's
/// private value at start and end. The × delta is implemented as a running
/// factor rather than a division, so a zero old value cannot poison the
/// merge.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_REDUCTIONOPS_H
#define ALTER_RUNTIME_REDUCTIONOPS_H

#include "runtime/Annotation.h"

#include <cstdint>
#include <string>

namespace alter {

/// Value category of a reduction variable.
enum class ScalarKind { F64, I64 };

/// A tagged scalar, the currency of the reduction machinery.
struct RedValue {
  ScalarKind Kind = ScalarKind::F64;
  union {
    double F;
    int64_t I;
  };

  RedValue() : F(0.0) {}
  static RedValue ofF64(double V) {
    RedValue R;
    R.Kind = ScalarKind::F64;
    R.F = V;
    return R;
  }
  static RedValue ofI64(int64_t V) {
    RedValue R;
    R.Kind = ScalarKind::I64;
    R.I = V;
    return R;
  }

  bool equals(const RedValue &Other) const;
  std::string str() const;
};

/// Applies `A op B` element-wise for the given operator; A and B must share
/// a kind. For And/Or on F64, the values are compared as booleans (non-zero
/// is true), since logical accumulation is the only sensible reading.
RedValue applyReduceOp(ReduceOp Op, const RedValue &A, const RedValue &B);

/// Loads a RedValue of kind \p Kind from the storage at \p Addr.
RedValue loadScalar(ScalarKind Kind, const void *Addr);

/// Stores \p Value (of kind \p Kind) to the storage at \p Addr.
void storeScalar(ScalarKind Kind, void *Addr, const RedValue &Value);

/// Identity element of \p Op for kind \p Kind (0 for +, 1 for ×, ∓∞ for
/// max/min, all-ones/all-zeros for ∧/∨). A transaction's private
/// accumulator starts here.
RedValue reduceIdentity(ReduceOp Op, ScalarKind Kind);

/// Commit-time merge of §4.2. A transaction accumulates the operands of
/// its reduction updates into \p Accumulated (starting from the identity),
/// so the paper's formulas collapse to a single application:
///
///   op = +:  Sc + (newSt - oldSt) = Sc + Accumulated
///   op = ×:  Sc × (newSt / oldSt) = Sc × Accumulated
///   idempotent: Sc op newSt = Sc op (oldSt op Accumulated)
///             = Sc op Accumulated   (because oldSt was a snapshot of Sc)
RedValue mergeReduction(ReduceOp Op, const RedValue &Committed,
                        const RedValue &Accumulated);

} // namespace alter

#endif // ALTER_RUNTIME_REDUCTIONOPS_H
