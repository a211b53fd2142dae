// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Absolute numerics anchors: FNV-1a hashes of the trained parameters of
// small single-thread runs (node classification over several backbones and
// strategies, full-batch and sampled, plus link prediction) and of the
// per-epoch Figure-2 dynamics series. The other pins prove that two code
// paths agree with each other; these prove the numbers themselves did not
// move.
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
#include "nn/gcn.h"
#include "nn/model_factory.h"
#include "train/link_trainer.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

// 64-bit FNV-1a over raw bytes.
struct Fnv1a {
  uint64_t hash = 0xcbf29ce484222325ULL;

  void Mix(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash ^= p[i];
      hash *= 0x100000001b3ULL;
    }
  }
};

// FNV-1a over the name, shape and float bits of every parameter, in the
// model's parameter order (the digest perfbench prints).
uint64_t ParameterDigest(Model& model) {
  Fnv1a fnv;
  for (const Parameter* p : model.Parameters()) {
    fnv.Mix(p->name.data(), p->name.size());
    const int shape[2] = {p->value.rows(), p->value.cols()};
    fnv.Mix(shape, sizeof(shape));
    fnv.Mix(p->value.data(),
            sizeof(float) * static_cast<size_t>(p->value.size()));
  }
  return fnv.hash;
}

void PrintDigest(const std::string& label, uint64_t digest) {
  std::printf("%s digest %016llx\n", label.c_str(),
              static_cast<unsigned long long>(digest));
}

Graph GoldenGraph() { return BuildDatasetByName("cora_like", 0.15, 1); }

Split GoldenSplit(const Graph& graph) {
  Rng split_rng(1);
  return PublicSplit(graph, 10, 120, 150, split_rng);
}

ModelConfig GoldenConfig(const Graph& graph, int layers) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 16;
  config.out_dim = graph.num_classes();
  config.num_layers = layers;
  config.dropout = 0.5f;
  return config;
}

struct GoldenRun {
  std::string backbone;
  int layers;
  std::vector<int> fanouts;  // Empty = full batch.
  StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
};

uint64_t TrainDigest(const GoldenRun& setup) {
  SetParallelThreadCount(1);
  const Graph graph = GoldenGraph();
  const Split split = GoldenSplit(graph);
  Rng init_rng(12);
  std::unique_ptr<Model> model = MakeModel(
      setup.backbone, GoldenConfig(graph, setup.layers), init_rng);
  TrainNodeClassifier(
      *model, graph, split, setup.strategy,
      {.options = {.epochs = 8, .seed = 31},
       .sampling = {.fanouts = setup.fanouts, .batch_size = 32}});
  SetParallelThreadCount(0);
  const uint64_t digest = ParameterDigest(*model);
  PrintDigest(setup.backbone + " L=" + std::to_string(setup.layers) + " " +
                  StrategyName(setup.strategy.kind) +
                  (setup.fanouts.empty() ? "" : " sampled"),
              digest);
  return digest;
}

// FNV-1a over the float bits of every per-epoch Figure-2 series, in
// declaration order.
uint64_t DynamicsDigest(const StrategyConfig& strategy) {
  SetParallelThreadCount(1);
  const Graph graph = GoldenGraph();
  const Split split = GoldenSplit(graph);
  Rng init_rng(12);
  std::unique_ptr<Model> model =
      MakeModel("GCN", GoldenConfig(graph, 4), init_rng);
  DynamicsRecord record;
  TrainNodeClassifier(*model, graph, split, strategy,
                      {.options = {.epochs = 8, .seed = 31},
                       .dynamics = &record});
  SetParallelThreadCount(0);
  Fnv1a fnv;
  for (const std::vector<float>* series :
       {&record.mad, &record.output_gradient_norm,
        &record.first_layer_gradient_norm, &record.output_gradient_signed_sum,
        &record.weight_norm, &record.train_loss, &record.val_accuracy}) {
    EXPECT_EQ(series->size(), 8u);
    fnv.Mix(series->data(), sizeof(float) * series->size());
  }
  PrintDigest(std::string("dynamics GCN L=4 ") + StrategyName(strategy.kind),
              fnv.hash);
  return fnv.hash;
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

TEST(GoldenDigestTest, GcnNone) {
  EXPECT_EQ(TrainDigest({.backbone = "GCN", .layers = 4,
                         .strategy = StrategyConfig::None()}),
            0xeae84732d104d38aULL);
}

TEST(GoldenDigestTest, GcnSkipNodeB) {
  EXPECT_EQ(TrainDigest({.backbone = "GCN", .layers = 4,
                         .strategy = StrategyConfig::SkipNodeB(0.5f)}),
            0x1152184c0f3e4da0ULL);
}

TEST(GoldenDigestTest, JknetNone) {
  EXPECT_EQ(TrainDigest({.backbone = "JKNet", .layers = 4,
                         .strategy = StrategyConfig::None()}),
            0x976020919cb888c4ULL);
}

TEST(GoldenDigestTest, JknetSkipNodeU) {
  EXPECT_EQ(TrainDigest({.backbone = "JKNet", .layers = 4}),
            0x717720c6d9647ad5ULL);
}

TEST(GoldenDigestTest, JknetSkipNodeB) {
  EXPECT_EQ(TrainDigest({.backbone = "JKNet", .layers = 4,
                         .strategy = StrategyConfig::SkipNodeB(0.5f)}),
            0xf03ff75ffcda6962ULL);
}

TEST(GoldenDigestTest, GcniiNone) {
  EXPECT_EQ(TrainDigest({.backbone = "GCNII", .layers = 4,
                         .strategy = StrategyConfig::None()}),
            0x3c8c10515291403aULL);
}

TEST(GoldenDigestTest, GcniiSkipNodeU) {
  EXPECT_EQ(TrainDigest({.backbone = "GCNII", .layers = 4}),
            0x948769258203be98ULL);
}

TEST(GoldenDigestTest, GcniiSkipNodeB) {
  EXPECT_EQ(TrainDigest({.backbone = "GCNII", .layers = 4,
                         .strategy = StrategyConfig::SkipNodeB(0.5f)}),
            0x5514b556f4e23228ULL);
}

TEST(GoldenDigestTest, GcnDynamicsNone) {
  EXPECT_EQ(DynamicsDigest(StrategyConfig::None()), 0xc3616cd10d607fd7ULL);
}

TEST(GoldenDigestTest, GcnDynamicsSkipNodeU) {
  EXPECT_EQ(DynamicsDigest(StrategyConfig::SkipNodeU(0.5f)),
            0x9838b318e00adc2aULL);
}

// Link prediction keeps its own epoch loop; this pins its trained encoder.
TEST(GoldenDigestTest, LinkPredictorEncoderSkipNodeU) {
  SetParallelThreadCount(1);
  const Graph graph = BuildDatasetByName("ppa_like", 0.05, 1);
  Rng split_rng(2);
  const LinkSplit split = MakeLinkSplit(graph, 0.05, 0.10, 400, split_rng);
  const Graph message_graph("ppa_like_train", graph.num_nodes(),
                            split.train_edges, graph.features(), {}, 0);
  ModelConfig config = GoldenConfig(message_graph, 3);
  config.out_dim = 16;  // Embedding width.
  config.dropout = 0.2f;
  Rng init_rng(12);
  GcnModel encoder(config, init_rng);
  TrainLinkPredictor(encoder, message_graph, split,
                     StrategyConfig::SkipNodeU(0.5f),
                     {.epochs = 8, .eval_every = 4, .seed = 31});
  SetParallelThreadCount(0);
  const uint64_t digest = ParameterDigest(encoder);
  PrintDigest("link GCN L=3 SkipNode-U", digest);
  EXPECT_EQ(digest, 0xe1ae6ad987587a48ULL);
}

}  // namespace
}  // namespace skipnode
