// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Reproduces Figure 2: the three coupled failure modes of a 9-layer GCN on
// a Cora-like graph, per training epoch —
//   (a) MAD of the learned features           (over-smoothing),
//   (b) gradient norm at the output layer     (gradient vanishing),
//   (c) total L2 norm of the model weights    (weight over-decaying),
// for the vanilla model and each plug-and-play strategy. Expected shape:
// only the SkipNode rows keep all three quantities healthy.

#include <vector>

#include "bench_common.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

void Main() {
  bench::Begin("fig2");

  Graph graph = BuildDatasetByName(
      "cora_like", bench::Pick(0.25, 1.0), /*seed=*/1);
  Rng split_rng(1);
  Split split = PublicSplit(graph, 20, bench::Pick(150, 500),
                            bench::Pick(200, 1000), split_rng);

  const int epochs = bench::Pick(120, 400);
  const int stride = epochs / 10;

  struct Row {
    const char* label;
    StrategyConfig strategy;
    DynamicsRecord record;
  };
  std::vector<Row> rows = {
      {"GCN", StrategyConfig::None(), {}},
      {"GCN(DropEdge)", StrategyConfig::DropEdge(0.3f), {}},
      {"GCN(DropNode)", StrategyConfig::DropNode(0.3f), {}},
      {"GCN(PairNorm)", StrategyConfig::PairNorm(1.0f), {}},
      {"GCN(SkipNode-U)", StrategyConfig::SkipNodeU(bench::Pick(0.9f, 0.7f)), {}},
      {"GCN(SkipNode-B)", StrategyConfig::SkipNodeB(bench::Pick(0.9f, 0.7f)), {}},
  };

  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = bench::Pick(48, 64);
  config.out_dim = graph.num_classes();
  // The paper uses 9 layers on full-size Cora. The shrunk smoke graph
  // tolerates 9 layers, so smoke mode deepens to 16 to reproduce the same
  // collapse regime.
  config.num_layers = bench::Pick(16, 9);
  config.dropout = bench::Pick(0.2f, 0.5f);

  TrainOptions options;
  options.epochs = epochs;
  options.weight_decay = 5e-4f;
  options.seed = 7;

  for (Row& row : rows) {
    bench::CellRecorder recorder(row.label);
    recorder.Param("strategy", StrategyName(row.strategy.kind))
        .Param("rate", static_cast<double>(row.strategy.rate))
        .Param("layers", config.num_layers)
        .Param("epochs", epochs);
    Rng rng(7);
    auto model = MakeModel("GCN", config, rng);
    TrainNodeClassifier(*model, graph, split, row.strategy,
                        {.options = options, .dynamics = &row.record});
    recorder.Record("final_val_accuracy",
                    100.0 * row.record.val_accuracy.back());
    recorder.Record("final_mad", row.record.mad.back());
    std::printf("trained %-16s (L=%d) final val acc %.1f%%\n", row.label,
                config.num_layers,
                100.0f * row.record.val_accuracy.back());
    std::fflush(stdout);
  }

  const auto print_panel = [&](const char* title,
                               const std::vector<float> DynamicsRecord::*
                                   series) {
    std::printf("\n-- %s --\n%-16s", title, "epoch");
    for (int e = 0; e < epochs; e += stride) std::printf(" %9d", e);
    std::printf("\n");
    for (const Row& row : rows) {
      std::printf("%-16s", row.label);
      for (int e = 0; e < epochs; e += stride) {
        std::printf(" %9.4f", (row.record.*series)[e]);
      }
      std::printf("\n");
    }
  };

  print_panel("(a) MAD of learned features (0 = fully over-smoothed)",
              &DynamicsRecord::mad);
  print_panel("(b) gradient norm at the first layer's weights",
              &DynamicsRecord::first_layer_gradient_norm);
  print_panel("(b') ||dL/dZ|| at the classification layer",
              &DynamicsRecord::output_gradient_norm);
  print_panel("(c) sum of weight L2 norms", &DynamicsRecord::weight_norm);

  std::printf(
      "\nExpected shape (paper Fig. 2): vanilla/DropNode/PairNorm rows show "
      "MAD ~ 0, vanishing gradients and shrinking weights; SkipNode rows "
      "keep all three healthy.\n");
}

}  // namespace
}  // namespace skipnode

int main() {
  skipnode::Main();
  return 0;
}
