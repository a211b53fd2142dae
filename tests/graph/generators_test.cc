// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "base/telemetry.h"
#include "tensor/ops.h"

namespace skipnode {
namespace {

TEST(ErdosRenyiTest, EdgeCountMatchesExpectation) {
  Rng rng(1);
  const int n = 100;
  const double p = 0.1;
  const EdgeList edges = ErdosRenyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(edges.size()), expected, expected * 0.15);
}

TEST(ErdosRenyiTest, NoSelfLoopsOrDuplicates) {
  Rng rng(2);
  const EdgeList edges = ErdosRenyi(50, 0.3, rng);
  std::set<std::pair<int, int>> seen;
  for (const auto& [u, v] : edges) {
    EXPECT_NE(u, v);
    EXPECT_TRUE(seen.insert(std::minmax(u, v)).second);
  }
}

TEST(ErdosRenyiTest, ExtremeProbabilities) {
  Rng rng(3);
  EXPECT_TRUE(ErdosRenyi(20, 0.0, rng).empty());
  EXPECT_EQ(ErdosRenyi(20, 1.0, rng).size(), 190u);
}

// What the cutpoint lookup must reproduce: the first index whose cumulative
// mass exceeds `target` (std::upper_bound), clamped to the last entry.
int UpperBoundIndex(const std::vector<double>& cdf, double target) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), target);
  return static_cast<int>(std::min<size_t>(it - cdf.begin(), cdf.size() - 1));
}

// Probes CutpointTable over `weights` at every CDF entry and bucket edge,
// one ulp either side of each, the ends of the range, past the total, and
// random targets, against UpperBoundIndex.
void ExpectMatchesUpperBound(const std::vector<double>& weights) {
  std::vector<double> cdf;
  double running = 0.0;
  for (const double w : weights) {
    running += w;
    cdf.push_back(running);
  }
  const CutpointTable table(weights);
  ASSERT_EQ(table.size(), static_cast<int>(cdf.size()));
  const double total = cdf.back();
  const double inf = std::numeric_limits<double>::infinity();

  std::vector<double> targets = {0.0, -1.0, total, 2.0 * total + 1.0,
                                 // Uniform()'s largest value times the total
                                 // rounds up to the total for many totals.
                                 (1.0 - 0x1.0p-53) * total};
  for (const double entry : cdf) targets.push_back(entry);
  for (size_t b = 0; b <= cdf.size(); ++b) {
    targets.push_back(b * (total / static_cast<double>(cdf.size())));
  }
  const size_t exact = targets.size();
  for (size_t t = 0; t < exact; ++t) {
    targets.push_back(std::nextafter(targets[t], inf));
    targets.push_back(std::nextafter(targets[t], -inf));
  }
  Rng rng(11);
  for (int t = 0; t < 2000; ++t) targets.push_back(rng.Uniform() * total);

  for (const double target : targets) {
    ASSERT_EQ(table.Lookup(target), UpperBoundIndex(cdf, target))
        << "target " << target << " of total " << total << " over "
        << cdf.size() << " entries";
  }
}

TEST(CutpointTableTest, OneAndTwoEntries) {
  ExpectMatchesUpperBound({1.0});
  ExpectMatchesUpperBound({0.3});
  ExpectMatchesUpperBound({1.0, 1.0});
  ExpectMatchesUpperBound({0.1, 7.0});
  ExpectMatchesUpperBound({7.0, 0.1});
}

TEST(CutpointTableTest, EqualWeights) {
  ExpectMatchesUpperBound(std::vector<double>(1000, 1.0));
  ExpectMatchesUpperBound(std::vector<double>(997, 0.1));
  // Thirds: just below a bucket edge the bucket maths round up a bucket,
  // past the answer, so the lookup has to step back.
  ExpectMatchesUpperBound(std::vector<double>(14, 1.0 / 3.0));
  ExpectMatchesUpperBound(std::vector<double>(20, 1.0 / 3.0));
}

TEST(CutpointTableTest, OneHubHoldsMostOfTheMass) {
  for (const int hub : {0, 250, 499}) {
    std::vector<double> weights(500, 1.0);
    weights[hub] = 1e6;
    ExpectMatchesUpperBound(weights);
  }
}

TEST(CutpointTableTest, ZeroWeightRunsTieTheCdf) {
  std::vector<double> weights(300, 0.0);
  for (int i = 40; i < 60; ++i) weights[i] = 1.0;
  weights[150] = 5.0;
  weights[299] = 0.5;
  ExpectMatchesUpperBound(weights);  // leading, inner and trailing ties
  weights[299] = 0.0;
  ExpectMatchesUpperBound(weights);  // ends on a tie
  ExpectMatchesUpperBound(std::vector<double>(10, 0.0));  // no mass at all
}

TEST(CutpointTableTest, PropensityLikeWeights) {
  // DC-SBM's theta: U(0,1)^{-1/2.5} capped at 10.
  Rng rng(12);
  std::vector<double> weights(5000);
  for (double& w : weights) {
    w = std::min(std::pow(1.0 - rng.Uniform(), -1.0 / 2.5), 10.0);
  }
  ExpectMatchesUpperBound(weights);
}

TEST(CutpointTableTest, DrawConsumesOneUniform) {
  const CutpointTable table({1.0, 2.0, 0.0, 3.0});
  const std::vector<double> cdf = {1.0, 3.0, 3.0, 6.0};
  Rng draws(13);
  Rng reference(13);
  for (int t = 0; t < 100; ++t) {
    const double target = reference.Uniform() * cdf.back();
    ASSERT_EQ(table.Draw(draws), UpperBoundIndex(cdf, target));
  }
  EXPECT_EQ(draws.Next(), reference.Next());
}

class PlantedPartitionTest : public ::testing::TestWithParam<double> {};

TEST_P(PlantedPartitionTest, HitsHomophilyTarget) {
  const double target = GetParam();
  Rng rng(4);
  PlantedPartitionConfig config;
  config.num_nodes = 800;
  config.num_classes = 4;
  config.num_edges = 3000;
  config.homophily = target;
  const PlantedPartitionGraph g = PlantedPartition(config, rng);

  int same = 0;
  for (const auto& [u, v] : g.edges) {
    if (g.labels[u] == g.labels[v]) ++same;
  }
  const double homophily = static_cast<double>(same) / g.edges.size();
  EXPECT_NEAR(homophily, target, 0.06);
}

INSTANTIATE_TEST_SUITE_P(HomophilySweep, PlantedPartitionTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(PlantedPartitionTest, ClassesAreBalanced) {
  Rng rng(5);
  PlantedPartitionConfig config;
  config.num_nodes = 600;
  config.num_classes = 3;
  config.num_edges = 1500;
  const PlantedPartitionGraph g = PlantedPartition(config, rng);
  std::vector<int> counts(3, 0);
  for (const int label : g.labels) counts[label] += 1;
  for (const int c : counts) EXPECT_EQ(c, 200);
}

TEST(PlantedPartitionTest, ReachesRequestedEdgeCount) {
  Rng rng(6);
  PlantedPartitionConfig config;
  config.num_nodes = 500;
  config.num_edges = 1200;
  config.num_classes = 5;
  const PlantedPartitionGraph g = PlantedPartition(config, rng);
  EXPECT_EQ(g.edges.size(), 1200u);
}

TEST(PlantedPartitionTest, DegreeCorrectionCreatesSkew) {
  // With power-law propensities the max degree should far exceed the mean.
  Rng rng(7);
  PlantedPartitionConfig config;
  config.num_nodes = 500;
  config.num_edges = 2000;
  config.num_classes = 2;
  config.power_law = 2.0;
  const PlantedPartitionGraph g = PlantedPartition(config, rng);
  const std::vector<int> degree = Degrees(config.num_nodes, g.edges);
  const int max_degree = *std::max_element(degree.begin(), degree.end());
  const double mean_degree = 2.0 * g.edges.size() / config.num_nodes;
  EXPECT_GT(max_degree, 3.0 * mean_degree);
}

TEST(StreamDcSbmEdgesTest, EachPassIsOneTimingOfItsEmittedEdges) {
  Rng rng(14);
  PlantedPartitionConfig config;
  config.num_nodes = 400;
  config.num_edges = 1500;
  config.num_classes = 4;
  const DcSbmPlan plan = PlanDcSbm(config, rng);

  SetTelemetryEnabled(true);
  ResetTelemetry();
  int64_t emitted = 0;
  for (int pass = 0; pass < 2; ++pass) {
    StreamDcSbmEdges(config, plan, [&](int, int) { ++emitted; });
  }
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(false);

  EXPECT_EQ(emitted, 2 * config.num_edges);
  const MetricStat* stream = snapshot.Find("graph.edge_stream");
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->count, 2);
  EXPECT_EQ(stream->items, emitted);
}

TEST(FeatureTest, FeaturesAreRowNormalised) {
  Rng rng(8);
  std::vector<int> labels(100);
  for (int i = 0; i < 100; ++i) labels[i] = i % 4;
  FeatureConfig config;
  Matrix features = MakeClassFeatures(labels, 4, config, rng);
  for (int i = 0; i < features.rows(); ++i) {
    double norm_sq = 0.0;
    for (int j = 0; j < features.cols(); ++j) {
      norm_sq += features.at(i, j) * features.at(i, j);
    }
    EXPECT_NEAR(norm_sq, 1.0, 1e-4);
  }
}

TEST(FeatureTest, SameClassFeaturesAreMoreSimilar) {
  Rng rng(9);
  const int n = 400;
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) labels[i] = i % 2;
  FeatureConfig config;
  config.signal = 0.8;
  Matrix features = MakeClassFeatures(labels, 2, config, rng);

  double same = 0.0, cross = 0.0;
  int same_count = 0, cross_count = 0;
  Rng pair_rng(10);
  for (int trial = 0; trial < 4000; ++trial) {
    const int i = static_cast<int>(pair_rng.UniformInt(n));
    const int j = static_cast<int>(pair_rng.UniformInt(n));
    if (i == j) continue;
    const float cos =
        CosineSimilarity(features.row(i), features.row(j), features.cols());
    if (labels[i] == labels[j]) {
      same += cos;
      ++same_count;
    } else {
      cross += cos;
      ++cross_count;
    }
  }
  EXPECT_GT(same / same_count, cross / cross_count + 0.1);
}

TEST(FeatureTest, ZeroSignalHasNoClassStructure) {
  Rng rng(11);
  const int n = 300;
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) labels[i] = i % 2;
  FeatureConfig config;
  config.signal = 0.0;
  Matrix features = MakeClassFeatures(labels, 2, config, rng);
  double same = 0.0, cross = 0.0;
  int same_count = 0, cross_count = 0;
  for (int i = 0; i < 100; ++i) {
    for (int j = i + 1; j < 100; ++j) {
      const float cos =
          CosineSimilarity(features.row(i), features.row(j), features.cols());
      if (labels[i] == labels[j]) {
        same += cos;
        ++same_count;
      } else {
        cross += cos;
        ++cross_count;
      }
    }
  }
  EXPECT_NEAR(same / same_count, cross / cross_count, 0.05);
}

}  // namespace
}  // namespace skipnode
