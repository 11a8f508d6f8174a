//===- workloads/Fft.cpp --------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Fft.h"

#include "support/Random.h"

#include <cassert>
#include <cmath>

using namespace alter;

void FftWorkload::setUp(size_t Index) {
  assert(Index < numInputs() && "input index out of range");
  Dim = Index == 0 ? 64 : 128;
  Xoshiro256StarStar Rng(0xFF7 + static_cast<uint64_t>(Dim));
  Matrix.assign(static_cast<size_t>(Dim) * static_cast<size_t>(Dim),
                Complex{0, 0});
  for (Complex &C : Matrix) {
    C.Re = Rng.nextDoubleIn(-1.0, 1.0);
    C.Im = Rng.nextDoubleIn(-1.0, 1.0);
  }
  Twiddle.assign(static_cast<size_t>(Dim) / 2, Complex{0, 0});
  for (int64_t K = 0; K != Dim / 2; ++K) {
    const double Angle = -2.0 * M_PI * static_cast<double>(K) /
                         static_cast<double>(Dim);
    Twiddle[static_cast<size_t>(K)] = {std::cos(Angle), std::sin(Angle)};
  }
}

/// In-place radix-2 Cooley-Tukey over Dim elements at the given stride.
/// Contiguous rows are acquired as one allocation-granularity object;
/// strided columns instrument every complex element access — reproducing
/// the copy-constructor instrumentation the paper blames for FFT's
/// slowdown.
void FftWorkload::transformLine(TxnContext &Ctx, Complex *Base,
                                int64_t Stride) {
  const int64_t N = Dim;
  Ctx.noteMemoryTraffic(static_cast<uint64_t>(N) * sizeof(Complex));

  // A contiguous row is one allocation-granularity object: acquire it once
  // and run the whole transform through raw pointers (§4.1) into wherever
  // the context placed it. A strided column has no such object, so every
  // element access is instrumented — the "many copy constructors" regime
  // the paper blames for FFT's slowdown.
  const bool WholeObject = Stride == 1;
  if (WholeObject)
    Base = static_cast<Complex *>(
        Ctx.acquireObject(Base, static_cast<size_t>(N) * sizeof(Complex)));
  auto At = [&](int64_t I) { return Base + I * Stride; };
  if (!WholeObject)
    for (int64_t I = 0; I != N; ++I)
      Ctx.instrumentRead(At(I), sizeof(Complex));

  // Bit reversal permutation.
  for (int64_t I = 1, J = 0; I != N; ++I) {
    int64_t Bit = N >> 1;
    for (; J & Bit; Bit >>= 1)
      J ^= Bit;
    J |= Bit;
    if (I < J) {
      Complex A, B;
      if (WholeObject) {
        A = *At(I);
        B = *At(J);
        *At(I) = B;
        *At(J) = A;
      } else {
        A = Ctx.load(At(I));
        B = Ctx.load(At(J));
        Ctx.store(At(I), B);
        Ctx.store(At(J), A);
      }
    }
  }
  // Butterfly stages. Reads are covered by the up-front instrumentation
  // (§4.1): row reads go straight to the acquired object, column reads
  // peek, uninstrumented, at the transaction's own view of memory. Row
  // stores run raw inside the acquired object; column stores pass through
  // the context element by element — each complex temporary's copy lands
  // in the write log, the per-access burden the paper blames for FFT's
  // slowdown.
  auto Read = [&](int64_t I) {
    return WholeObject ? *At(I) : Ctx.peek(At(I));
  };
  for (int64_t Len = 2; Len <= N; Len <<= 1) {
    const int64_t Step = N / Len;
    for (int64_t I = 0; I < N; I += Len) {
      for (int64_t K = 0; K != Len / 2; ++K) {
        const Complex W = Twiddle[static_cast<size_t>(K * Step)];
        const Complex U = Read(I + K);
        const Complex V = Read(I + K + Len / 2);
        const Complex T = {V.Re * W.Re - V.Im * W.Im,
                           V.Re * W.Im + V.Im * W.Re};
        const Complex Hi = {U.Re + T.Re, U.Im + T.Im};
        const Complex Lo = {U.Re - T.Re, U.Im - T.Im};
        if (WholeObject) {
          *At(I + K) = Hi;
          *At(I + K + Len / 2) = Lo;
        } else {
          Ctx.store(At(I + K), Hi);
          Ctx.store(At(I + K + Len / 2), Lo);
        }
      }
    }
  }
}

void FftWorkload::run(LoopRunner &Runner) {
  // Loop 1: rows.
  {
    LoopSpec Spec;
    Spec.Name = "fft.rows";
    Spec.NumIterations = Dim;
    Spec.Body = [this](TxnContext &Ctx, int64_t Row) {
      transformLine(Ctx, &Matrix[static_cast<size_t>(Row * Dim)],
                    /*Stride=*/1);
    };
    if (!Runner.runInner(Spec))
      return;
  }
  // Loop 2: columns (identical structure, strided access).
  {
    LoopSpec Spec;
    Spec.Name = "fft.cols";
    Spec.NumIterations = Dim;
    Spec.Body = [this](TxnContext &Ctx, int64_t Col) {
      transformLine(Ctx, &Matrix[static_cast<size_t>(Col)], /*Stride=*/Dim);
    };
    Runner.runInner(Spec);
  }
}

std::vector<double> FftWorkload::outputSignature() const {
  double SumRe = 0.0, SumIm = 0.0, Energy = 0.0;
  for (const Complex &C : Matrix) {
    SumRe += C.Re;
    SumIm += C.Im;
    Energy += C.Re * C.Re + C.Im * C.Im;
  }
  std::vector<double> Sig = {SumRe, SumIm, Energy};
  for (size_t I = 0; I < Matrix.size(); I += 257) {
    Sig.push_back(Matrix[I].Re);
    Sig.push_back(Matrix[I].Im);
  }
  return Sig;
}

bool FftWorkload::validate(const std::vector<double> &Reference) const {
  // Per-line transforms are bitwise deterministic; exact match expected.
  const std::vector<double> Mine = outputSignature();
  if (Mine.size() != Reference.size())
    return false;
  for (size_t I = 0; I != Mine.size(); ++I)
    if (std::fabs(Mine[I] - Reference[I]) >
        1e-9 * std::max(1.0, std::fabs(Reference[I])))
      return false;
  return true;
}
