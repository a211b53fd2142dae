// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Absolute anchors for the streamed DC-SBM (DESIGN §13): FNV-1a hashes of
// the StreamDcSbmEdges pair sequence and of every array of the built synth
// graph (CSR offsets, columns and value bits, labels, feature bits), at
// synth@20000 and at the sampled_synth benchmark shape (30000 nodes, average
// degree 100). datasets_test proves that two builds agree with each other;
// these prove the graph itself did not move. A change to the generator that
// is meant to be bitwise-neutral must leave every hash here untouched.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "sparse/csr_matrix.h"

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

void PrintDigest(const std::string& label, uint64_t digest) {
  std::printf("%s digest %016llx\n", label.c_str(),
              static_cast<unsigned long long>(digest));
}

// The plan BuildStreamingDataset draws for "synth" at `nodes` x `avg_degree`
// and `seed` (same config, same Rng seeding).
struct SynthShape {
  int nodes;
  double avg_degree;  // 0 = the spec's default ratio (10)
  uint64_t seed;
};

uint64_t EdgeStreamDigest(const SynthShape& shape) {
  PlantedPartitionConfig config;
  config.num_nodes = shape.nodes;
  config.num_classes = 10;
  const double degree = shape.avg_degree > 0.0 ? shape.avg_degree : 10.0;
  config.num_edges = static_cast<int>(std::llround(shape.nodes * degree / 2));
  config.homophily = 0.80;
  config.power_law = 2.5;
  Rng rng(shape.seed * 0x9e3779b97f4a7c15ULL + 17);
  const DcSbmPlan plan = PlanDcSbm(config, rng);
  Fnv1a fnv;
  int64_t pairs = 0;
  StreamDcSbmEdges(config, plan, [&](int u, int v) {
    const int pair[2] = {u, v};
    fnv.Mix(pair, sizeof(pair));
    ++pairs;
  });
  fnv.Mix(&pairs, sizeof(pairs));
  PrintDigest("edge stream synth@" + std::to_string(shape.nodes), fnv.hash);
  return fnv.hash;
}

uint64_t GraphDigest(const SynthShape& shape) {
  DatasetRequest request;
  request.name = "synth";
  request.seed = shape.seed;
  request.nodes = shape.nodes;
  request.avg_degree = shape.avg_degree;
  const Graph graph = DatasetRegistry::Global().Build(request);
  const CsrMatrix& a_hat = *graph.normalized_adjacency();
  Fnv1a fnv;
  for (size_t r = 0; r < a_hat.row_offsets().size(); ++r) {
    const int64_t offset = a_hat.row_offsets()[r];
    fnv.Mix(&offset, sizeof(offset));
  }
  fnv.Mix(a_hat.col_idx().data(), sizeof(int) * a_hat.col_idx().size());
  fnv.Mix(a_hat.values().data(), sizeof(float) * a_hat.values().size());
  fnv.Mix(graph.labels().data(), sizeof(int) * graph.labels().size());
  const Matrix& features = graph.features();
  fnv.Mix(features.data(),
          sizeof(float) * static_cast<size_t>(features.size()));
  PrintDigest("graph synth@" + std::to_string(shape.nodes), fnv.hash);
  return fnv.hash;
}

constexpr SynthShape kSynth20k = {20000, 0.0, 5};
// sampled_synth's graph: perfbench builds it at data seed 1.
constexpr SynthShape kSampledSynth = {30000, 100.0, 1};

TEST(SynthGoldenTest, EdgeStreamSynth20k) {
  EXPECT_EQ(EdgeStreamDigest(kSynth20k), 0x75e7046deefc91d7ULL);
}

TEST(SynthGoldenTest, EdgeStreamSampledSynthShape) {
  EXPECT_EQ(EdgeStreamDigest(kSampledSynth), 0xfe157b22d5ca4911ULL);
}

TEST(SynthGoldenTest, GraphSynth20k) {
  EXPECT_EQ(GraphDigest(kSynth20k), 0x5ba0594466c360edULL);
}

TEST(SynthGoldenTest, GraphSampledSynthShape) {
  EXPECT_EQ(GraphDigest(kSampledSynth), 0x61aba9fbad373ec3ULL);
}

}  // namespace
}  // namespace skipnode
