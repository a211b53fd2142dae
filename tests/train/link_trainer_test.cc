// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "train/link_trainer.h"

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "nn/gcn.h"

namespace skipnode {
namespace {

struct LinkSetup {
  Graph graph;
  LinkSplit split;
  Graph message_graph;

  explicit LinkSetup(uint64_t seed)
      : graph(BuildDatasetByName("ppa_like", 0.05, seed)),
        split([this, seed]() {
          Rng rng(seed + 1);
          return MakeLinkSplit(graph, 0.05, 0.10, 400, rng);
        }()),
        message_graph("ppa_like_train", graph.num_nodes(), split.train_edges,
                      graph.features(), {}, 0) {}
};

ModelConfig EncoderConfig(const Graph& graph, int layers) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 24;
  config.out_dim = 24;  // Embedding width.
  config.num_layers = layers;
  config.dropout = 0.0f;
  return config;
}

TEST(LinkTrainerTest, LearnsToRankEdgesAboveNegatives) {
  LinkSetup setup(1);
  Rng rng(2);
  GcnModel encoder(EncoderConfig(setup.message_graph, 2), rng);
  LinkTrainOptions options;
  options.epochs = 40;
  options.eval_every = 5;
  const LinkResult result = TrainLinkPredictor(
      encoder, setup.message_graph, setup.split, StrategyConfig::None(),
      options);
  // Random embeddings put ~K/|neg| of positives above the K-th negative;
  // with K = 100 over 400 negatives that's 25%. Training must beat it well.
  EXPECT_GT(result.test_hits100, 0.45);
  // Hits@K is monotone in K.
  EXPECT_LE(result.test_hits10, result.test_hits50 + 1e-9);
  EXPECT_LE(result.test_hits50, result.test_hits100 + 1e-9);
}

TEST(LinkTrainerTest, DeterministicForSeed) {
  LinkSetup setup(3);
  double hits[2];
  for (int i = 0; i < 2; ++i) {
    Rng rng(4);
    GcnModel encoder(EncoderConfig(setup.message_graph, 2), rng);
    LinkTrainOptions options;
    options.epochs = 10;
    options.seed = 9;
    hits[i] = TrainLinkPredictor(encoder, setup.message_graph, setup.split,
                                 StrategyConfig::SkipNodeU(0.5f), options)
                  .test_hits50;
  }
  EXPECT_DOUBLE_EQ(hits[0], hits[1]);
}

TEST(LinkTrainerTest, WorksWithSkipNodeOnDeeperEncoder) {
  LinkSetup setup(5);
  Rng rng(6);
  GcnModel encoder(EncoderConfig(setup.message_graph, 4), rng);
  LinkTrainOptions options;
  options.epochs = 30;
  const LinkResult result = TrainLinkPredictor(
      encoder, setup.message_graph, setup.split,
      StrategyConfig::SkipNodeU(0.5f), options);
  EXPECT_GT(result.test_hits100, 0.3);
}

TEST(LinkTrainerDeathTest, ZeroEvalEveryAborts) {
  LinkSetup setup(7);
  Rng rng(8);
  GcnModel encoder(EncoderConfig(setup.message_graph, 2), rng);
  LinkTrainOptions options;
  options.epochs = 2;
  options.eval_every = 0;
  EXPECT_DEATH(TrainLinkPredictor(encoder, setup.message_graph, setup.split,
                                  StrategyConfig::None(), options),
               "eval_every >= 1");
}

}  // namespace
}  // namespace skipnode
