// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// End-to-end acceptance test for the fused propagation + workspace pool
// (DESIGN §10): a whole training run with the fused masked kernel and the
// pool enabled must produce bitwise-identical trained parameters to the
// naive SpMM + RowSelect path with pooling disabled — at 1 and 4 threads,
// for both SkipNode samplers.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/simd.h"
#include "base/telemetry.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "nn/model_factory.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

struct Fixture {
  Graph graph;
  Split split;

  Fixture()
      : graph(BuildDatasetByName("cora_like", 0.15, 1)),
        split([this]() {
          Rng rng(1);
          return PublicSplit(graph, 10, 120, 150, rng);
        }()) {}
};

ModelConfig ConfigFor(const Graph& graph, int layers) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 16;
  config.out_dim = graph.num_classes();
  config.num_layers = layers;
  config.dropout = 0.4f;
  return config;
}

struct TrainedRun {
  TrainResult result;
  std::vector<Matrix> parameters;
};

TrainedRun Train(const Fixture& setup, const std::string& backbone,
                 StrategyConfig strategy, bool fused, bool pooled,
                 int threads) {
  strategy.fuse_propagation = fused;
  SetMatrixPoolEnabled(pooled);
  SetParallelThreadCount(threads);
  Rng rng(12);
  auto model = MakeModel(backbone, ConfigFor(setup.graph, 4), rng);
  TrainedRun run;
  run.result =
      TrainNodeClassifier(*model, setup.graph, setup.split, strategy,
                          {.options = {.epochs = 12, .seed = 31}});
  for (Parameter* p : model->Parameters()) run.parameters.push_back(p->value);
  SetParallelThreadCount(0);
  SetMatrixPoolEnabled(true);
  return run;
}

void ExpectBitwiseEqual(const TrainedRun& a, const TrainedRun& b,
                        const std::string& label) {
  EXPECT_DOUBLE_EQ(a.result.final_train_loss, b.result.final_train_loss)
      << label;
  EXPECT_DOUBLE_EQ(a.result.test_accuracy, b.result.test_accuracy) << label;
  EXPECT_EQ(a.result.best_epoch, b.result.best_epoch) << label;
  ASSERT_EQ(a.parameters.size(), b.parameters.size()) << label;
  for (size_t i = 0; i < a.parameters.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(a.parameters[i], b.parameters[i]), 0.0f)
        << label << " parameter " << i;
  }
}

// After the first step a full-batch run recycles its whole working set
// exactly: every later Acquire hits and the pool's footprint stays flat.
TEST(FusedTrainTest, FullBatchSteadyStateIsAllPoolHits) {
  Fixture setup;
  GlobalMatrixPool().Clear();
  SetTelemetryEnabled(true);
  ResetTelemetry();
  std::vector<int64_t> misses;
  std::vector<int64_t> retained;
  Rng rng(12);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 4), rng);
  TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::SkipNodeU(0.5f),
      {.options = {.epochs = 8, .seed = 31},
       .on_epoch = [&](int, double, double, double) {
         const TelemetrySnapshot snapshot = SnapshotTelemetry();
         const MetricStat* miss = snapshot.Find("pool.miss");
         misses.push_back(miss == nullptr ? 0 : miss->count);
         retained.push_back(GlobalMatrixPool().bytes_retained());
       }});
  SetTelemetryEnabled(false);
  ASSERT_EQ(misses.size(), 8u);
  // misses[0] counts the first training step and the first evaluation.
  EXPECT_GT(misses[0], 0);
  for (size_t epoch = 1; epoch < misses.size(); ++epoch) {
    EXPECT_EQ(misses[epoch], misses[0]) << "epoch " << epoch;
    EXPECT_EQ(retained[epoch], retained[0]) << "epoch " << epoch;
  }
  EXPECT_LE(GlobalMatrixPool().bytes_retained(),
            GlobalMatrixPool().peak_bytes_lent());
}

class FusedTrainTest
    : public ::testing::TestWithParam<std::pair<const char*, bool>> {};

TEST_P(FusedTrainTest, FusedPooledTrainingIsBitwiseIdenticalToNaive) {
  const std::string backbone = GetParam().first;
  const bool biased = GetParam().second;
  const StrategyConfig strategy = biased ? StrategyConfig::SkipNodeB(0.5f)
                                         : StrategyConfig::SkipNodeU(0.5f);
  Fixture setup;
  const TrainedRun naive =
      Train(setup, backbone, strategy, /*fused=*/false, /*pooled=*/false,
            /*threads=*/1);
  const TrainedRun fused_1t =
      Train(setup, backbone, strategy, /*fused=*/true, /*pooled=*/true,
            /*threads=*/1);
  const TrainedRun fused_4t =
      Train(setup, backbone, strategy, /*fused=*/true, /*pooled=*/true,
            /*threads=*/4);
  ExpectBitwiseEqual(naive, fused_1t, backbone + " fused@1t");
  ExpectBitwiseEqual(naive, fused_4t, backbone + " fused@4t");
}

INSTANTIATE_TEST_SUITE_P(
    Backbones, FusedTrainTest,
    ::testing::Values(std::make_pair("GCN", false),
                      std::make_pair("GCN", true),
                      std::make_pair("JKNet", false)),
    [](const ::testing::TestParamInfo<std::pair<const char*, bool>>& info) {
      return std::string(info.param.first) +
             (info.param.second ? "Biased" : "Uniform");
    });

// The backward pass runs the parallel transposed-SpMM gather on every path,
// fused or not — training the *naive* path at 1 and 4 threads pins that the
// cached transpose plan and its thread-count-invariant partitioning leave
// trained parameters bitwise unchanged end-to-end (DESIGN §7/§10).
TEST(FusedTrainTest, NaiveTrainingIsThreadCountInvariant) {
  Fixture setup;
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  const TrainedRun naive_1t =
      Train(setup, "GCN", strategy, /*fused=*/false, /*pooled=*/false,
            /*threads=*/1);
  const TrainedRun naive_4t =
      Train(setup, "GCN", strategy, /*fused=*/false, /*pooled=*/false,
            /*threads=*/4);
  ExpectBitwiseEqual(naive_1t, naive_4t, "naive 1t-vs-4t");
}

// The fused path must actually help the model learn exactly what the naive
// path learns — so a naive-vs-naive rerun must also agree with itself (the
// harness is sound, not vacuously passing on e.g. NaN != NaN).
TEST(FusedTrainTest, HarnessIsSelfConsistent) {
  Fixture setup;
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  const TrainedRun a =
      Train(setup, "GCN", strategy, /*fused=*/false, /*pooled=*/false, 1);
  const TrainedRun b =
      Train(setup, "GCN", strategy, /*fused=*/false, /*pooled=*/false, 1);
  ExpectBitwiseEqual(a, b, "naive rerun");
  EXPECT_GT(a.result.final_train_loss, 0.0);
}


// End-to-end DESIGN section 14 pin: the SKIPNODE_SIMD kill-switch routes
// every kernel through the scalar references, and a whole training run must
// not move by a single bit — with the switch on or off, at 1, 4 and 8
// threads (the property tools/check_simd.sh proves on saved checkpoints).
TEST(FusedTrainTest, TrainingIsBitwiseIdenticalAcrossSimdSwitch) {
  Fixture setup;
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  const bool saved = simd::Enabled();
  simd::SetEnabled(false);
  const TrainedRun reference =
      Train(setup, "GCN", strategy, /*fused=*/true, /*pooled=*/true, 1);
  for (const int threads : {1, 4, 8}) {
    for (const bool vec : {false, true}) {
      if (threads == 1 && !vec) continue;  // The reference itself.
      simd::SetEnabled(vec);
      const TrainedRun run = Train(setup, "GCN", strategy, /*fused=*/true,
                                   /*pooled=*/true, threads);
      ExpectBitwiseEqual(reference, run,
                         std::string("simd=") + (vec ? "on" : "off") + "@" +
                             std::to_string(threads) + "t");
    }
  }
  simd::SetEnabled(saved);
}

// fast_math (the reassociated Gemm dot) changes the floats — by rounding
// only. The run must stay deterministic (rerun and thread-count invariant,
// bitwise) and land at a comparable solution, but is NOT expected to match
// the exact path bitwise.
TEST(FusedTrainTest, FastMathTrainingIsDeterministicAndToleranceClose) {
  Fixture setup;
  StrategyConfig fast = StrategyConfig::SkipNodeU(0.5f);
  fast.fast_math = true;
  const TrainedRun fast_1t =
      Train(setup, "GCN", fast, /*fused=*/true, /*pooled=*/true, 1);
  const TrainedRun fast_rerun =
      Train(setup, "GCN", fast, /*fused=*/true, /*pooled=*/true, 1);
  const TrainedRun fast_4t =
      Train(setup, "GCN", fast, /*fused=*/true, /*pooled=*/true, 4);
  ExpectBitwiseEqual(fast_1t, fast_rerun, "fast_math rerun");
  ExpectBitwiseEqual(fast_1t, fast_4t, "fast_math 1t-vs-4t");

  const StrategyConfig exact = StrategyConfig::SkipNodeU(0.5f);
  const TrainedRun exact_1t =
      Train(setup, "GCN", exact, /*fused=*/true, /*pooled=*/true, 1);
  EXPECT_NEAR(fast_1t.result.final_train_loss,
              exact_1t.result.final_train_loss,
              0.05 * (1.0 + exact_1t.result.final_train_loss));
  ASSERT_EQ(fast_1t.parameters.size(), exact_1t.parameters.size());
  for (size_t i = 0; i < fast_1t.parameters.size(); ++i) {
    // Rounding differences compound over 12 epochs but stay small.
    EXPECT_LT(MaxAbsDiff(fast_1t.parameters[i], exact_1t.parameters[i]),
              0.05f)
        << "parameter " << i;
  }
}

}  // namespace
}  // namespace skipnode
