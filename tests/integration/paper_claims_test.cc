// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Integration tests for the paper's headline claims, at test-suite scale:
//   1. a deep vanilla GCN collapses toward chance accuracy while the same
//      depth with SkipNode stays far above it (Tables 6/7);
//   2. the deep vanilla GCN's representation over-smooths (MAD -> ~0) while
//      SkipNode keeps feature diversity (Figures 2a, 5b);
//   3. the vanilla model's output-layer gradient and weight norms collapse
//      relative to SkipNode's (Figures 2b, 2c).

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/oversmoothing.h"
#include "graph/datasets.h"
#include "nn/model_factory.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

struct Fixture {
  Graph graph;
  Split split;

  explicit Fixture(uint64_t seed)
      : graph(BuildDatasetByName("cora_like", 0.2, seed)),
        split([this, seed]() {
          Rng rng(seed);
          return PublicSplit(graph, 12, 150, 200, rng);
        }()) {}
};

ModelConfig DeepConfig(const Graph& graph, int layers) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 24;
  config.out_dim = graph.num_classes();
  config.num_layers = layers;
  config.dropout = 0.2f;
  return config;
}

double RunGcn(const Fixture& setup, int layers, const StrategyConfig& strategy,
              uint64_t seed) {
  Rng rng(seed);
  auto model = MakeModel("GCN", DeepConfig(setup.graph, layers), rng);
  return TrainNodeClassifier(
             *model, setup.graph, setup.split, strategy,
             {.options = {.epochs = 100, .eval_every = 2, .seed = seed}})
      .test_accuracy;
}

TEST(PaperClaimsTest, SkipNodeRescuesDeepGcn) {
  Fixture setup(1);
  const int kDeep = 12;
  const double vanilla = RunGcn(setup, kDeep, StrategyConfig::None(), 5);
  const double skip_u = RunGcn(setup, kDeep, StrategyConfig::SkipNodeU(0.7f), 5);
  const double chance = 1.0 / setup.graph.num_classes();

  // The deep vanilla GCN is near chance; SkipNode keeps it far above both
  // chance and the vanilla model (Table 6's depth-16+ pattern).
  EXPECT_LT(vanilla, 2.2 * chance);
  EXPECT_GT(skip_u, 2.8 * chance);
  EXPECT_GT(skip_u, vanilla + 0.10);
}

TEST(PaperClaimsTest, ShallowGcnIsAlreadyFine) {
  // SkipNode's story is about depth: at L = 2 the vanilla model works.
  Fixture setup(2);
  const double vanilla = RunGcn(setup, 2, StrategyConfig::None(), 7);
  EXPECT_GT(vanilla, 2.8 / setup.graph.num_classes());
}

TEST(PaperClaimsTest, DynamicsShowThreeCoupledFailures) {
  Fixture setup(3);
  TrainOptions options;
  options.epochs = 80;
  options.weight_decay = 5e-4f;
  options.seed = 11;

  // The paper's Figure 2 uses 9 layers on full-size Cora; the scaled-down
  // graph needs more depth (and no dropout noise) for the vanilla model to
  // collapse reliably.
  const int kDeep = 16;
  ModelConfig config = DeepConfig(setup.graph, kDeep);
  config.dropout = 0.0f;
  Rng rng_a(13), rng_b(13);
  auto vanilla = MakeModel("GCN", config, rng_a);
  auto with_skip = MakeModel("GCN", config, rng_b);

  DynamicsRecord rec_vanilla, rec_skip;
  TrainNodeClassifier(*vanilla, setup.graph, setup.split,
                      StrategyConfig::None(),
                      {.options = options, .dynamics = &rec_vanilla});
  TrainNodeClassifier(*with_skip, setup.graph, setup.split,
                      StrategyConfig::SkipNodeU(0.7f),
                      {.options = options, .dynamics = &rec_skip});

  const auto tail_mean = [](const std::vector<float>& values) {
    double total = 0.0;
    const size_t start = values.size() - 10;
    for (size_t i = start; i < values.size(); ++i) total += values[i];
    return total / 10.0;
  };

  // (a) Over-smoothing: vanilla MAD collapses, SkipNode keeps diversity.
  EXPECT_GT(tail_mean(rec_skip.mad), 2.0 * tail_mean(rec_vanilla.mad));
  // (b) Gradient vanishing: back-propagation-induced vanishing shows up at
  // the *first* layer's weights (the output-layer CE gradient is bounded
  // below whenever predictions are wrong, per Theorem 1 only its signed sum
  // cancels). SkipNode sustains a much larger input-layer gradient.
  EXPECT_GT(tail_mean(rec_skip.first_layer_gradient_norm),
            2.0 * tail_mean(rec_vanilla.first_layer_gradient_norm));
  // (c) Weight over-decaying: vanilla weights shrink more from their start.
  const double vanilla_ratio =
      tail_mean(rec_vanilla.weight_norm) / rec_vanilla.weight_norm.front();
  const double skip_ratio =
      tail_mean(rec_skip.weight_norm) / rec_skip.weight_norm.front();
  EXPECT_LT(vanilla_ratio, skip_ratio);
  // And the model actually learns under SkipNode.
  EXPECT_GT(tail_mean(rec_skip.val_accuracy),
            tail_mean(rec_vanilla.val_accuracy));
}

TEST(PaperClaimsTest, Theorem1SignedSumStartsNearZeroForDeepGcn) {
  // At the first epochs of a deep (over-smoothed) GCN with class-balanced
  // training nodes, the signed gradient sum at the classification layer is
  // tiny relative to the entry-wise gradient mass.
  Fixture setup(4);
  TrainOptions options;
  options.epochs = 3;
  options.seed = 21;
  Rng rng(23);
  auto model = MakeModel("GCN", DeepConfig(setup.graph, 12), rng);
  DynamicsRecord record;
  TrainNodeClassifier(*model, setup.graph, setup.split, StrategyConfig::None(),
                      {.options = options, .dynamics = &record});
  ASSERT_FALSE(record.output_gradient_signed_sum.empty());
  EXPECT_LT(std::fabs(record.output_gradient_signed_sum.front()),
            0.05f * record.output_gradient_norm.front() + 1e-4f);
}

TEST(PaperClaimsTest, BiasedSamplingAlsoRescues) {
  // Biased sampling draws *exactly* rho*N nodes, so very large rho skips
  // nearly every convolution; rho = 0.5 is the paper's typical setting.
  Fixture setup(5);
  const double skip_b =
      RunGcn(setup, 12, StrategyConfig::SkipNodeB(0.5f), 27);
  EXPECT_GT(skip_b, 2.5 / setup.graph.num_classes());
}

TEST(PaperClaimsTest, DecoupledModelsBeatGcnOnHeterophilicGraphs) {
  // The paper's Table 3 heterophily story: on low-homophily graphs where
  // features (not neighbourhoods) carry the label, generalised-PageRank
  // models with learnable hop weights (GPRGNN) far outperform plain GCN.
  Graph graph = BuildDatasetByName("texas_like", 1.0, 31);
  ASSERT_LT(graph.EdgeHomophily(), 0.4);
  Rng split_rng(31);
  Split split = RandomSplit(graph, 0.6, 0.2, split_rng);

  const auto run = [&](const char* backbone) {
    ModelConfig config = DeepConfig(graph, 4);
    Rng rng(33);
    auto model = MakeModel(backbone, config, rng);
    return TrainNodeClassifier(*model, graph, split, StrategyConfig::None(),
                               {.options = {.epochs = 120, .seed = 33}})
        .test_accuracy;
  };
  const double gcn = run("GCN");
  const double gprgnn = run("GPRGNN");
  EXPECT_GT(gprgnn, gcn + 0.15);
}

}  // namespace
}  // namespace skipnode
