// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "stats.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> values = OneTo(100);
  EXPECT_EQ(Percentile(values, 50.0), 50.0);
  EXPECT_EQ(Percentile(values, 99.0), 99.0);
  EXPECT_EQ(Percentile(values, 100.0), 100.0);
  EXPECT_EQ(Percentile(OneTo(10), 99.0), 10.0);
  EXPECT_EQ(Percentile({7.0}, 1.0), 7.0);
}

TEST(TailPercentileTest, KeepsTenSamplesBeyond) {
  const Tail tail = TailPercentile(OneTo(200));
  ASSERT_TRUE(tail.ok);
  EXPECT_EQ(tail.value, 190.0);  // 191..200 lie beyond it
  EXPECT_EQ(tail.beyond, 10);
  EXPECT_EQ(tail.samples, 200);
  EXPECT_DOUBLE_EQ(tail.percentile, 95.0);
}

TEST(TailPercentileTest, SmallestSampleThatSupportsATail) {
  const Tail tail = TailPercentile(OneTo(11));
  ASSERT_TRUE(tail.ok);
  EXPECT_EQ(tail.value, 1.0);
  EXPECT_FALSE(TailPercentile(OneTo(10)).ok);
  EXPECT_FALSE(TailPercentile({}).ok);
}

TEST(TailPercentileTest, CustomMinimumBeyond) {
  const Tail tail = TailPercentile(OneTo(1000), /*min_beyond=*/100);
  ASSERT_TRUE(tail.ok);
  EXPECT_EQ(tail.value, 900.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
}

TEST(WindowedPercentileTest, OneStalledWindowDoesNotMoveTheMedian) {
  // Five windows of 100: latency 1..100 each, one window hit by a stall.
  std::vector<double> values;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) values.push_back(w == 2 ? 1000.0 * i : i);
  }
  EXPECT_EQ(WindowedPercentile(values, 100, 99.0), 99.0);
  EXPECT_EQ(Percentile(values, 99.0), 95000.0);
}

TEST(WindowedPercentileTest, PartialWindows) {
  std::vector<double> values = OneTo(250);  // windows of 100, 100, then 50
  // The trailing 50 are dropped: windows hold 250..151 and 150..51.
  EXPECT_EQ(WindowedPercentile(values, 100, 50.0), 150.0);
  EXPECT_EQ(WindowedPercentile(OneTo(40), 100, 50.0), 20.0);  // only window
}

TEST(BacklogTest, FlatLatencyIsNotGrowing) {
  std::vector<double> latency(400, 300.0);
  for (size_t i = 0; i < latency.size(); i += 7) latency[i] = 900.0;
  EXPECT_FALSE(BacklogGrowing(latency, /*limit_us=*/1000.0));
}

TEST(BacklogTest, ClimbingLatencyIsGrowing) {
  std::vector<double> latency;
  for (int i = 0; i < 400; ++i) latency.push_back(200.0 + 10.0 * i);
  EXPECT_TRUE(BacklogGrowing(latency, /*limit_us=*/1000.0));
}

TEST(BacklogTest, ClimbWithinHalfTheLimitIsTolerated) {
  std::vector<double> latency;
  for (int i = 0; i < 400; ++i) latency.push_back(200.0 + 1.0 * i);
  // First-quarter median ~250, last-quarter ~550: a 300 us climb.
  EXPECT_FALSE(BacklogGrowing(latency, /*limit_us=*/1000.0));
  EXPECT_TRUE(BacklogGrowing(latency, /*limit_us=*/500.0));
}

TEST(BacklogTest, TooFewSamplesShowNoTrend) {
  EXPECT_FALSE(BacklogGrowing({1.0, 1e6, 1e7}, 1.0));
}

TEST(RungTest, EveryConditionMustHold) {
  RungResult rung;
  rung.sent = 1000;
  rung.p99_us = 900.0;
  EXPECT_TRUE(RungPasses(rung, 1000.0));
  EXPECT_FALSE(RungPasses(rung, 800.0));
  RungResult failed = rung;
  failed.failed = 1;
  EXPECT_FALSE(RungPasses(failed, 1000.0));
  RungResult behind = rung;
  behind.generator_behind = true;
  EXPECT_FALSE(RungPasses(behind, 1000.0));
  RungResult aborted = rung;
  aborted.aborted = true;
  EXPECT_FALSE(RungPasses(aborted, 1000.0));
  RungResult growing = rung;
  growing.backlog_growing = true;
  EXPECT_FALSE(RungPasses(growing, 1000.0));
  EXPECT_FALSE(RungPasses(RungResult{}, 1000.0));
}

TEST(LadderTest, GeometricRates) {
  const std::vector<double> rates = LadderRates(1000.0, 1.05, 4);
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_DOUBLE_EQ(rates[0], 1000.0);
  EXPECT_DOUBLE_EQ(rates[3], 1000.0 * 1.05 * 1.05 * 1.05);
}

TEST(LadderTest, BisectionFindsTheKnee) {
  for (int knee = -1; knee < 60; ++knee) {
    int probes = 0;
    const int best = HighestPassingRung(60, [&](int k) {
      ++probes;
      return k <= knee;
    });
    EXPECT_EQ(best, knee);
    EXPECT_LE(probes, 7);  // rung 0 plus ceil(log2(60))
  }
}

TEST(LadderTest, EveryRungPassing) {
  EXPECT_EQ(HighestPassingRung(5, [](int) { return true; }), 4);
  EXPECT_EQ(HighestPassingRung(1, [](int) { return true; }), 0);
  EXPECT_EQ(HighestPassingRung(1, [](int) { return false; }), -1);
}

TEST(ResultJsonTest, EveryMetricCarriesItsNameAndUnit) {
  const std::string line = ResultJson(
      true, 12, 0, {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{"
            "\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},"
            "\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}");
}

TEST(ResultJsonTest, NonFiniteValuesPrintAsNull) {
  const std::string line =
      ResultJson(false, 1, 1, {{"x", std::nan(""), "ms"}});
  EXPECT_NE(line.find("\"x\":{\"value\":null,\"unit\":\"ms\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench
