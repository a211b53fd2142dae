// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/gcn.h"

#include <numeric>

#include "base/check.h"
#include "tensor/ops.h"

namespace skipnode {

GcnModel::GcnModel(const ModelConfig& config, Rng& rng, bool residual,
                   std::string name)
    : name_(std::move(name)), config_(config), residual_(residual) {
  SKIPNODE_CHECK(config.num_layers >= 2);
  SKIPNODE_CHECK(config.in_dim > 0 && config.hidden_dim > 0 &&
                 config.out_dim > 0);
  for (int l = 0; l < config.num_layers; ++l) {
    const int in = l == 0 ? config.in_dim : config.hidden_dim;
    const int out = l == config.num_layers - 1 ? config.out_dim
                                               : config.hidden_dim;
    layers_.push_back(std::make_unique<Linear>(
        name_ + ".conv" + std::to_string(l), in, out, rng));
  }
}

Var GcnModel::Forward(Tape& tape, const Graph& graph, StrategyContext& ctx,
                      bool training, Rng& rng) {
  const int num_layers = config_.num_layers;
  Var x = tape.Constant(graph.features());
  for (int l = 0; l < num_layers; ++l) {
    const Var pre = x;  // X^(l-1), the skip path of Eq. 4.
    Var h = tape.Dropout(x, config_.dropout, training, rng);
    // A_hat (X W): multiplying by W first keeps the SpMM at the narrow width.
    h = layers_[l]->Apply(tape, h);

    const bool middle = l > 0 && l < num_layers - 1;
    Var conv;
    if (middle && !residual_) {
      // Combine input is the raw convolution: eligible for the fused
      // masked-SpMM path.
      conv = ctx.PropagateMiddle(tape, l, pre, h);
    } else {
      conv = tape.SpMM(ctx.LayerAdjacency(l), h);
      if (middle) {
        // The residual add sits between the SpMM and the combine, so ResGCN
        // keeps the unfused path.
        conv = tape.Add(conv, pre);
        conv = ctx.TransformMiddle(tape, pre, conv);
      } else if (l == 0) {
        conv = ctx.TransformBoundary(tape, conv);
      }
    }
    if (l == num_layers - 1) {
      x = conv;
    } else {
      x = tape.Relu(conv);
      if (l == num_layers - 2) StashPenultimate(x);
    }
  }
  return x;
}

Var GcnModel::ForwardSampled(Tape& tape, const Graph& graph,
                             const SampledBatch& batch,
                             const StrategyConfig& config, bool training,
                             Rng& rng) {
  const int num_layers = config_.num_layers;
  SKIPNODE_CHECK(static_cast<int>(batch.layers.size()) == num_layers);
  // Bottom src frontier features, gathered once per batch.
  Var x = tape.ConstantRows(graph.features(), batch.input_nodes);
  for (int l = 0; l < num_layers; ++l) {
    const SampledLayer& block = batch.layers[static_cast<size_t>(l)];
    SKIPNODE_CHECK(block.num_src() == x.value().rows());
    Var h = tape.Dropout(x, config_.dropout, training, rng);
    h = layers_[l]->Apply(tape, h);

    const bool middle = l > 0 && l < num_layers - 1;
    Var conv;
    if (middle) {
      // The dst frontier is a prefix of the src frontier, so the skip path
      // X^(l-1) restricted to this layer's output rows is a prefix gather.
      std::vector<int> prefix(static_cast<size_t>(block.num_dst()));
      std::iota(prefix.begin(), prefix.end(), 0);
      Var pre = tape.GatherRows(x, std::move(prefix));
      // A block built under a mask holds bare self rows for the masked dst
      // nodes — the mask MUST be applied or those rows would read a wrong
      // "convolution". Eval passes must sample with a null mask callback.
      const bool masked = !block.skip_mask.empty();
      if (masked && !residual_ && config.fuse_propagation) {
        conv = tape.SpMMRowSelect(block.block, h, pre, block.skip_mask);
      } else {
        conv = tape.SpMM(block.block, h);
        if (residual_) conv = tape.Add(conv, pre);
        if (masked) conv = tape.RowSelect(block.skip_mask, pre, conv);
      }
    } else {
      conv = tape.SpMM(block.block, h);
    }
    x = l == num_layers - 1 ? conv : tape.Relu(conv);
  }
  return x;
}

std::vector<Parameter*> GcnModel::Parameters() {
  std::vector<Parameter*> params;
  for (const auto& layer : layers_) layer->CollectParameters(params);
  return params;
}

}  // namespace skipnode
