//===- workloads/Hmm.cpp --------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Hmm.h"

#include "support/Random.h"

#include <cassert>
#include <cmath>

using namespace alter;

void HmmWorkload::setUp(size_t Index) {
  assert(Index < numInputs() && "input index out of range");
  NumStates = Index == 0 ? 128 : 192;
  NumSteps = Index == 0 ? 256 : 384;
  NumSymbols = 32;

  Xoshiro256StarStar Rng(0x40404 + static_cast<uint64_t>(NumStates));
  Transition.assign(
      static_cast<size_t>(NumStates) * static_cast<size_t>(NumStates), 0.0);
  for (int64_t From = 0; From != NumStates; ++From) {
    double RowSum = 0.0;
    for (int64_t To = 0; To != NumStates; ++To) {
      const double V = Rng.nextDoubleIn(0.01, 1.0);
      Transition[static_cast<size_t>(From * NumStates + To)] = V;
      RowSum += V;
    }
    for (int64_t To = 0; To != NumStates; ++To)
      Transition[static_cast<size_t>(From * NumStates + To)] /= RowSum;
  }
  Emission.assign(
      static_cast<size_t>(NumStates) * static_cast<size_t>(NumSymbols), 0.0);
  for (int64_t S = 0; S != NumStates; ++S) {
    double RowSum = 0.0;
    for (int64_t O = 0; O != NumSymbols; ++O) {
      const double V = Rng.nextDoubleIn(0.01, 1.0);
      Emission[static_cast<size_t>(S * NumSymbols + O)] = V;
      RowSum += V;
    }
    for (int64_t O = 0; O != NumSymbols; ++O)
      Emission[static_cast<size_t>(S * NumSymbols + O)] /= RowSum;
  }
  Observations.assign(static_cast<size_t>(NumSteps), 0);
  for (int32_t &O : Observations)
    O = static_cast<int32_t>(Rng.nextBounded(
        static_cast<uint64_t>(NumSymbols)));

  AlphaPrev.assign(static_cast<size_t>(NumStates),
                   1.0 / static_cast<double>(NumStates));
  AlphaNext.assign(static_cast<size_t>(NumStates), 0.0);
  LogLik = 0.0;
}

void HmmWorkload::run(LoopRunner &Runner) {
  LogLik = 0.0;
  for (int64_t T = 0; T != NumSteps; ++T) {
    const int32_t Obs = Observations[static_cast<size_t>(T)];

    LoopSpec Spec;
    Spec.Name = "hmm.step";
    Spec.NumIterations = NumStates;
    Spec.Body = [this, Obs](TxnContext &Ctx, int64_t S) {
      // The previous row was committed before this loop started; its read
      // is not loop-carried. One range instrumentation covers it.
      double *AlphaScratch =
          Ctx.scratch<double>(static_cast<size_t>(NumStates));
      Ctx.readRange(AlphaPrev.data(), static_cast<size_t>(NumStates),
                    AlphaScratch);
      Ctx.noteMemoryTraffic(static_cast<uint64_t>(NumStates) *
                            sizeof(double));
      double Sum = 0.0;
      for (int64_t From = 0; From != NumStates; ++From)
        Sum += AlphaScratch[static_cast<size_t>(From)] *
               Transition[static_cast<size_t>(From * NumStates + S)];
      const double Value =
          Sum * Emission[static_cast<size_t>(S * NumSymbols + Obs)];
      Ctx.store(&AlphaNext[static_cast<size_t>(S)], Value);
    };
    if (!Runner.runInner(Spec))
      return;

    // Sequential per-step scaling and row swap (as in the reference code).
    double Scale = 0.0;
    for (double V : AlphaNext)
      Scale += V;
    for (int64_t S = 0; S != NumStates; ++S)
      AlphaPrev[static_cast<size_t>(S)] =
          AlphaNext[static_cast<size_t>(S)] / Scale;
    LogLik += std::log(Scale);
  }
}

std::vector<double> HmmWorkload::outputSignature() const {
  std::vector<double> Sig = {LogLik};
  for (size_t I = 0; I < AlphaPrev.size(); I += 17)
    Sig.push_back(AlphaPrev[I]);
  return Sig;
}

bool HmmWorkload::validate(const std::vector<double> &Reference) const {
  const std::vector<double> Mine = outputSignature();
  if (Mine.size() != Reference.size())
    return false;
  for (size_t I = 0; I != Mine.size(); ++I)
    if (std::fabs(Mine[I] - Reference[I]) >
        1e-9 * std::max(1.0, std::fabs(Reference[I])))
      return false;
  return true;
}
