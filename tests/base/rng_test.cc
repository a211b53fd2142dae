// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

namespace skipnode {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformFloatRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.UniformFloat(-2.5f, 3.5f);
    ASSERT_GE(v, -2.5f);
    ASSERT_LT(v, 3.5f);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) counts[rng.UniformInt(10)] += 1;
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.1, 0.01);
  }
}

TEST(RngTest, NormalHasUnitVariance) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / draws, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / draws, 1.0, 0.05);
}

TEST(RngTest, BernoulliMatchesRate) {
  Rng rng(5);
  int hits = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(9);
  const std::vector<int> sample = rng.SampleWithoutReplacement(50, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const int s : sample) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 50);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(9);
  const std::vector<int> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, WeightedSampleRespectsWeights) {
  Rng rng(13);
  // Index 0 has 10x the weight of the others; it should be selected in a
  // size-1 draw far more often.
  std::vector<double> weights = {10.0, 1.0, 1.0, 1.0, 1.0};
  int zero_count = 0;
  const int draws = 5000;
  for (int i = 0; i < draws; ++i) {
    const std::vector<int> pick = rng.WeightedSampleWithoutReplacement(weights, 1);
    ASSERT_EQ(pick.size(), 1u);
    if (pick[0] == 0) ++zero_count;
  }
  // P(pick 0) = 10/14 ~ 0.714.
  EXPECT_NEAR(static_cast<double>(zero_count) / draws, 10.0 / 14.0, 0.03);
}

TEST(RngTest, WeightedSampleIsWithoutReplacement) {
  Rng rng(17);
  std::vector<double> weights(20, 1.0);
  const std::vector<int> sample =
      rng.WeightedSampleWithoutReplacement(weights, 20);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(RngTest, WeightedSampleHandlesZeroWeights) {
  Rng rng(19);
  // Only two positive-weight items but k = 3: zero-weight items may fill in.
  std::vector<double> weights = {0.0, 5.0, 0.0, 5.0};
  const std::vector<int> sample =
      rng.WeightedSampleWithoutReplacement(weights, 3);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 3u);
  // The two positive-weight items must both be present.
  EXPECT_TRUE(unique.count(1) == 1 && unique.count(3) == 1);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

// Absolute anchors: the raw xoshiro256** stream and the Bernoulli draws
// Dropout masks are built from. Every other Rng test is relative (same seed
// twice, statistics); these catch a stream that changes consistently.
TEST(RngTest, FirstDrawsMatchPinnedValues) {
  Rng rng(42);
  const uint64_t expected[8] = {
      0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
      0xecb8ad4703b360a1ULL, 0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
      0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.Next(), expected[i]) << i;
}

TEST(RngTest, BernoulliDrawsMatchPinnedHash) {
  Rng rng(42);
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over one byte per draw.
  for (int i = 0; i < 4096; ++i) {
    hash ^= rng.Bernoulli(0.5) ? 1u : 0u;
    hash *= 0x100000001b3ULL;
  }
  EXPECT_EQ(hash, 0x8bf9f9ad75ce150bULL);
}

}  // namespace
}  // namespace skipnode
