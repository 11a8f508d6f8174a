//===- runtime/ReductionOps.cpp -------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ReductionOps.h"

#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

using namespace alter;

bool RedValue::equals(const RedValue &Other) const {
  if (Kind != Other.Kind)
    return false;
  if (Kind == ScalarKind::F64)
    return F == Other.F;
  return I == Other.I;
}

std::string RedValue::str() const {
  if (Kind == ScalarKind::F64)
    return strprintf("%g", F);
  return strprintf("%lld", static_cast<long long>(I));
}

RedValue alter::applyReduceOp(ReduceOp Op, const RedValue &A,
                              const RedValue &B) {
  assert(A.Kind == B.Kind && "reduction operands must share a kind");
  RedValue R;
  R.Kind = A.Kind;
  if (A.Kind == ScalarKind::F64) {
    switch (Op) {
    case ReduceOp::Plus:
      R.F = A.F + B.F;
      return R;
    case ReduceOp::Mul:
      R.F = A.F * B.F;
      return R;
    case ReduceOp::Max:
      R.F = std::max(A.F, B.F);
      return R;
    case ReduceOp::Min:
      R.F = std::min(A.F, B.F);
      return R;
    case ReduceOp::And:
      R.F = (A.F != 0.0 && B.F != 0.0) ? 1.0 : 0.0;
      return R;
    case ReduceOp::Or:
      R.F = (A.F != 0.0 || B.F != 0.0) ? 1.0 : 0.0;
      return R;
    }
    ALTER_UNREACHABLE("covered switch");
  }
  switch (Op) {
  case ReduceOp::Plus:
    R.I = A.I + B.I;
    return R;
  case ReduceOp::Mul:
    R.I = A.I * B.I;
    return R;
  case ReduceOp::Max:
    R.I = std::max(A.I, B.I);
    return R;
  case ReduceOp::Min:
    R.I = std::min(A.I, B.I);
    return R;
  case ReduceOp::And:
    R.I = A.I & B.I;
    return R;
  case ReduceOp::Or:
    R.I = A.I | B.I;
    return R;
  }
  ALTER_UNREACHABLE("covered switch");
}

RedValue alter::loadScalar(ScalarKind Kind, const void *Addr) {
  RedValue V;
  V.Kind = Kind;
  if (Kind == ScalarKind::F64)
    std::memcpy(&V.F, Addr, sizeof(double));
  else
    std::memcpy(&V.I, Addr, sizeof(int64_t));
  return V;
}

void alter::storeScalar(ScalarKind Kind, void *Addr, const RedValue &Value) {
  assert(Kind == Value.Kind && "scalar kind mismatch");
  if (Kind == ScalarKind::F64)
    std::memcpy(Addr, &Value.F, sizeof(double));
  else
    std::memcpy(Addr, &Value.I, sizeof(int64_t));
}

RedValue alter::reduceIdentity(ReduceOp Op, ScalarKind Kind) {
  if (Kind == ScalarKind::F64) {
    switch (Op) {
    case ReduceOp::Plus:
      return RedValue::ofF64(0.0);
    case ReduceOp::Mul:
      return RedValue::ofF64(1.0);
    case ReduceOp::Max:
      return RedValue::ofF64(-std::numeric_limits<double>::infinity());
    case ReduceOp::Min:
      return RedValue::ofF64(std::numeric_limits<double>::infinity());
    case ReduceOp::And:
      return RedValue::ofF64(1.0); // boolean truth
    case ReduceOp::Or:
      return RedValue::ofF64(0.0);
    }
    ALTER_UNREACHABLE("covered switch");
  }
  switch (Op) {
  case ReduceOp::Plus:
    return RedValue::ofI64(0);
  case ReduceOp::Mul:
    return RedValue::ofI64(1);
  case ReduceOp::Max:
    return RedValue::ofI64(std::numeric_limits<int64_t>::min());
  case ReduceOp::Min:
    return RedValue::ofI64(std::numeric_limits<int64_t>::max());
  case ReduceOp::And:
    return RedValue::ofI64(-1); // all bits set
  case ReduceOp::Or:
    return RedValue::ofI64(0);
  }
  ALTER_UNREACHABLE("covered switch");
}

RedValue alter::mergeReduction(ReduceOp Op, const RedValue &Committed,
                               const RedValue &Accumulated) {
  // With operand accumulation from the identity, every case of the §4.2
  // formulas is one associative application (see header).
  return applyReduceOp(Op, Committed, Accumulated);
}
