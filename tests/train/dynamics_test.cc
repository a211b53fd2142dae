// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "train/trainer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "nn/model_factory.h"

namespace skipnode {
namespace {

struct Fixture {
  Graph graph;
  Split split;

  Fixture()
      : graph(BuildDatasetByName("cornell_like", 1.0, 9)),
        split([this]() {
          Rng rng(9);
          return RandomSplit(graph, 0.6, 0.2, rng);
        }()) {}
};

ModelConfig SmallConfig(const Graph& graph) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 12;
  config.out_dim = graph.num_classes();
  config.num_layers = 4;
  config.dropout = 0.2f;
  return config;
}

TEST(DynamicsTest, RecordsOneEntryPerEpochInEverySeries) {
  Fixture f;
  Rng rng(1);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  TrainOptions options;
  options.epochs = 7;
  DynamicsRecord record;
  TrainNodeClassifier(*model, f.graph, f.split, StrategyConfig::None(),
                      {.options = options, .dynamics = &record});
  EXPECT_EQ(record.mad.size(), 7u);
  EXPECT_EQ(record.output_gradient_norm.size(), 7u);
  EXPECT_EQ(record.output_gradient_signed_sum.size(), 7u);
  EXPECT_EQ(record.first_layer_gradient_norm.size(), 7u);
  EXPECT_EQ(record.weight_norm.size(), 7u);
  EXPECT_EQ(record.train_loss.size(), 7u);
  EXPECT_EQ(record.val_accuracy.size(), 7u);
}

TEST(DynamicsTest, AllSeriesAreFiniteAndSigned) {
  Fixture f;
  Rng rng(2);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  TrainOptions options;
  options.epochs = 10;
  DynamicsRecord record;
  TrainNodeClassifier(*model, f.graph, f.split,
                      StrategyConfig::SkipNodeU(0.5f),
                      {.options = options, .dynamics = &record});
  for (size_t e = 0; e < record.mad.size(); ++e) {
    EXPECT_TRUE(std::isfinite(record.mad[e]));
    EXPECT_GE(record.mad[e], 0.0f);
    EXPECT_GE(record.output_gradient_norm[e], 0.0f);
    EXPECT_GE(record.first_layer_gradient_norm[e], 0.0f);
    EXPECT_GT(record.weight_norm[e], 0.0f);
    EXPECT_GE(record.val_accuracy[e], 0.0f);
    EXPECT_LE(record.val_accuracy[e], 1.0f);
  }
}

TEST(DynamicsTest, ShallowTrainingShowsLearning) {
  Fixture f;
  Rng rng(3);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  TrainOptions options;
  options.epochs = 40;
  options.weight_decay = 0.0f;
  DynamicsRecord record;
  TrainNodeClassifier(*model, f.graph, f.split, StrategyConfig::None(),
                      {.options = options, .dynamics = &record});
  // Loss falls substantially from the first epoch to the last.
  EXPECT_LT(record.train_loss.back(), record.train_loss.front());
  // Gradient actually reaches the first layer on a shallow model.
  EXPECT_GT(record.first_layer_gradient_norm.front(), 0.0f);
}

TEST(DynamicsTest, WeightDecayShrinksWeightNormSeries) {
  Fixture f;
  Rng rng(4);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  TrainOptions options;
  options.epochs = 30;
  options.weight_decay = 5e-2f;  // Aggressive decay dominates learning.
  DynamicsRecord record;
  TrainNodeClassifier(*model, f.graph, f.split, StrategyConfig::None(),
                      {.options = options, .dynamics = &record});
  EXPECT_LT(record.weight_norm.back(), record.weight_norm.front());
}

TEST(DynamicsTest, SignedSumIsSmallWithBalancedTraining) {
  // Theorem 1's cancellation needs class-balanced training rows; the
  // stratified 60% split is close to balanced, so the signed sum is small
  // relative to the gradient norm at every epoch.
  Fixture f;
  Rng rng(5);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  TrainOptions options;
  options.epochs = 5;
  DynamicsRecord record;
  TrainNodeClassifier(*model, f.graph, f.split, StrategyConfig::None(),
                      {.options = options, .dynamics = &record});
  for (size_t e = 0; e < record.mad.size(); ++e) {
    EXPECT_LT(std::fabs(record.output_gradient_signed_sum[e]),
              0.5f * record.output_gradient_norm[e] + 1e-4f);
  }
}

// The sink records one full-graph step and one evaluation per epoch, so it
// refuses runs that take several steps or skip evaluations.
TEST(DynamicsDeathTest, SinkRejectsSampledTraining) {
  Fixture f;
  Rng rng(6);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  DynamicsRecord record;
  EXPECT_DEATH(TrainNodeClassifier(*model, f.graph, f.split,
                                   StrategyConfig::None(),
                                   {.options = {.epochs = 2},
                                    .sampling = {.fanouts = {4, 4, 4, 4}},
                                    .dynamics = &record}),
               "full-batch");
}

TEST(DynamicsDeathTest, SinkRejectsSkippedEvaluations) {
  Fixture f;
  Rng rng(7);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  DynamicsRecord record;
  EXPECT_DEATH(TrainNodeClassifier(*model, f.graph, f.split,
                                   StrategyConfig::None(),
                                   {.options = {.epochs = 4, .eval_every = 2},
                                    .dynamics = &record}),
               "eval_every == 1");
}

}  // namespace
}  // namespace skipnode
