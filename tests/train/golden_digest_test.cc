// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Absolute numerics anchors: FNV-1a hashes of the trained parameters of
// three small single-thread runs. The other pins prove that two code paths
// agree with each other; these prove the numbers themselves did not move.
// A kernel or tape change that is meant to be bitwise-neutral must leave
// every hash here untouched. A change that is meant to alter the numbers
// must refresh them in the same commit and say so in CHANGES.md.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "nn/model_factory.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

// FNV-1a over the name, shape and float bits of every parameter, in the
// model's parameter order (the digest perfbench prints).
uint64_t ParameterDigest(Model& model) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash ^= p[i];
      hash *= 0x100000001b3ULL;
    }
  };
  for (const Parameter* p : model.Parameters()) {
    mix(p->name.data(), p->name.size());
    const int shape[2] = {p->value.rows(), p->value.cols()};
    mix(shape, sizeof(shape));
    mix(p->value.data(), sizeof(float) * static_cast<size_t>(p->value.size()));
  }
  return hash;
}

struct GoldenRun {
  std::string backbone;
  int layers;
  std::vector<int> fanouts;  // Empty = full batch.
};

uint64_t TrainDigest(const GoldenRun& setup) {
  SetParallelThreadCount(1);
  const Graph graph = BuildDatasetByName("cora_like", 0.15, 1);
  Rng split_rng(1);
  const Split split = PublicSplit(graph, 10, 120, 150, split_rng);
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 16;
  config.out_dim = graph.num_classes();
  config.num_layers = setup.layers;
  config.dropout = 0.5f;
  Rng init_rng(12);
  std::unique_ptr<Model> model = MakeModel(setup.backbone, config, init_rng);
  TrainNodeClassifier(
      *model, graph, split, StrategyConfig::SkipNodeU(0.5f),
      {.options = {.epochs = 8, .seed = 31},
       .sampling = {.fanouts = setup.fanouts, .batch_size = 32}});
  SetParallelThreadCount(0);
  const uint64_t digest = ParameterDigest(*model);
  std::printf("%s L=%d%s digest %016llx\n", setup.backbone.c_str(),
              setup.layers, setup.fanouts.empty() ? "" : " sampled",
              static_cast<unsigned long long>(digest));
  return digest;
}

TEST(GoldenDigestTest, GcnFullBatchSkipNodeU) {
  EXPECT_EQ(TrainDigest({.backbone = "GCN", .layers = 4}),
            0x0e7564dcf7477024ULL);
}

TEST(GoldenDigestTest, GcnNeighborSampledSkipNodeU) {
  EXPECT_EQ(TrainDigest({.backbone = "GCN", .layers = 4,
                         .fanouts = {4, 4, 4, 4}}),
            0x984377e82753fa1eULL);
}

TEST(GoldenDigestTest, SgcSkipNodeU) {
  EXPECT_EQ(TrainDigest({.backbone = "SGC", .layers = 4}),
            0x205392e84830a644ULL);
}

}  // namespace
}  // namespace skipnode
