//===- tests/SupportTest.cpp - Unit tests for src/support -----------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace alter;

//===----------------------------------------------------------------------===
// Random
//===----------------------------------------------------------------------===

TEST(RandomTest, SplitMixIsDeterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, SplitMixDiffersAcrossSeeds) {
  SplitMix64 A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(RandomTest, XoshiroIsDeterministic) {
  Xoshiro256StarStar A(7), B(7);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, BoundedStaysInBounds) {
  Xoshiro256StarStar Rng(123);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(Rng.nextBounded(17), 17u);
}

TEST(RandomTest, BoundedCoversSmallRange) {
  Xoshiro256StarStar Rng(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 200; ++I)
    Seen.insert(Rng.nextBounded(4));
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(RandomTest, DoubleInUnitInterval) {
  Xoshiro256StarStar Rng(5);
  for (int I = 0; I != 1000; ++I) {
    const double V = Rng.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(RandomTest, DoubleInCustomInterval) {
  Xoshiro256StarStar Rng(5);
  for (int I = 0; I != 100; ++I) {
    const double V = Rng.nextDoubleIn(-3.0, 2.0);
    EXPECT_GE(V, -3.0);
    EXPECT_LT(V, 2.0);
  }
}

//===----------------------------------------------------------------------===
// Format
//===----------------------------------------------------------------------===

TEST(FormatTest, Strprintf) {
  EXPECT_EQ(strprintf("a=%d b=%s", 3, "x"), "a=3 b=x");
  EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(FormatTest, Durations) {
  EXPECT_EQ(formatDurationNs(12), "12 ns");
  EXPECT_EQ(formatDurationNs(1500), "1.50 us");
  EXPECT_EQ(formatDurationNs(2500000), "2.50 ms");
  EXPECT_EQ(formatDurationNs(3500000000ULL), "3.50 s");
}

TEST(FormatTest, SpeedupAndPercent) {
  EXPECT_EQ(formatSpeedup(2.041), "2.04x");
  EXPECT_EQ(formatPercent(0.035), "3.5%");
  EXPECT_EQ(formatDouble(1.23456, 3), "1.235");
}

//===----------------------------------------------------------------------===
// Stats
//===----------------------------------------------------------------------===

TEST(StatsTest, EmptyStat) {
  RunningStat S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.stddev(), 0.0);
}

TEST(StatsTest, MeanMinMax) {
  RunningStat S;
  for (double V : {2.0, 4.0, 6.0})
    S.add(V);
  EXPECT_DOUBLE_EQ(S.mean(), 4.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 6.0);
  EXPECT_DOUBLE_EQ(S.sum(), 12.0);
}

TEST(StatsTest, Variance) {
  RunningStat S;
  for (double V : {1.0, 2.0, 3.0, 4.0})
    S.add(V);
  EXPECT_NEAR(S.variance(), 1.25, 1e-12);
}

TEST(StatsTest, MergeMatchesCombinedStream) {
  RunningStat All, A, B;
  for (int I = 0; I != 10; ++I) {
    const double V = I * 1.5 - 3;
    All.add(V);
    (I < 4 ? A : B).add(V);
  }
  A.merge(B);
  EXPECT_EQ(A.count(), All.count());
  EXPECT_NEAR(A.mean(), All.mean(), 1e-12);
  EXPECT_NEAR(A.variance(), All.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(A.min(), All.min());
  EXPECT_DOUBLE_EQ(A.max(), All.max());
}

TEST(StatsTest, MergeWithEmpty) {
  RunningStat A, Empty;
  A.add(5.0);
  A.merge(Empty);
  EXPECT_EQ(A.count(), 1u);
  Empty.merge(A);
  EXPECT_EQ(Empty.count(), 1u);
  EXPECT_DOUBLE_EQ(Empty.mean(), 5.0);
}

TEST(StatsTest, GeometricMean) {
  GeometricMean G;
  EXPECT_DOUBLE_EQ(G.value(), 1.0);
  G.add(2.0);
  G.add(8.0);
  EXPECT_NEAR(G.value(), 4.0, 1e-12);
}

//===----------------------------------------------------------------------===
// Timer
//===----------------------------------------------------------------------===

TEST(TimerTest, MonotonicNow) {
  const uint64_t A = nowNs();
  const uint64_t B = nowNs();
  EXPECT_LE(A, B);
}

//===----------------------------------------------------------------------===
// Table
//===----------------------------------------------------------------------===

TEST(TableTest, RenderTextAligns) {
  TextTable T({"name", "v"});
  T.addRow({"alpha", "1"});
  T.addRow({"b", "22"});
  const std::string Text = T.renderText();
  EXPECT_NE(Text.find("alpha  1"), std::string::npos);
  EXPECT_NE(Text.find("b      22"), std::string::npos);
}

TEST(TableTest, RenderCsvEscapes) {
  TextTable T({"a", "b"});
  T.addRow({"x,y", "he said \"hi\""});
  const std::string Csv = T.renderCsv();
  EXPECT_NE(Csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(Csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, CellAccess) {
  TextTable T({"a"});
  T.addRow({"v0"});
  T.addRow({"v1"});
  EXPECT_EQ(T.cell(1, 0), "v1");
}
