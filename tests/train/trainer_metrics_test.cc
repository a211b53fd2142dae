// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The telemetry contract end to end (DESIGN §9): collecting per-epoch
// metrics and enabling process telemetry must leave every trained weight
// bitwise identical, at any thread count.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/telemetry.h"
#include "graph/datasets.h"
#include "nn/model_factory.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

struct Fixture {
  Graph graph;
  Split split;

  explicit Fixture(uint64_t seed)
      : graph(BuildDatasetByName("cora_like", 0.15, seed)),
        split([this, seed]() {
          Rng rng(seed);
          return PublicSplit(graph, 10, 120, 150, rng);
        }()) {}
};

ModelConfig ConfigFor(const Graph& graph, int layers) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 24;
  config.out_dim = graph.num_classes();
  config.num_layers = layers;
  config.dropout = 0.4f;
  return config;
}

// Trains one model and returns its final parameter matrices as raw bytes,
// so comparisons are bitwise, not within-epsilon.
struct RunOutput {
  TrainResult result;
  std::vector<std::vector<char>> parameter_bytes;
};

// `sampled` switches to minibatch neighbor-sampled epochs (DESIGN §15).
RunOutput TrainOnce(const Fixture& setup, bool instrumented, int threads,
                    bool sampled = false) {
  SetParallelThreadCount(threads);
  SetTelemetryEnabled(instrumented);
  if (instrumented) ResetTelemetry();
  Rng rng(12);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 4), rng);
  TrainRun run;
  run.options.epochs = 20;
  run.options.seed = 31;
  run.collect_metrics = instrumented;
  if (sampled) {
    run.sampling.fanouts = {4, 4, 4, 4};
    run.sampling.batch_size = 32;
  }
  RunOutput output;
  output.result = TrainNodeClassifier(*model, setup.graph, setup.split,
                                      StrategyConfig::SkipNodeU(0.5f), run);
  for (const Parameter* p : model->Parameters()) {
    const char* data = reinterpret_cast<const char*>(p->value.data());
    output.parameter_bytes.emplace_back(
        data, data + p->value.size() * sizeof(float));
  }
  SetTelemetryEnabled(false);
  SetParallelThreadCount(0);
  return output;
}

// The acceptance criterion: trained weights are bitwise identical with
// telemetry + metrics collection on vs off, at 1 and at 4 threads.
void ExpectMetricsAreOffTheNumericPath(const Fixture& setup, bool sampled) {
  const RunOutput baseline = TrainOnce(setup, /*instrumented=*/false,
                                       /*threads=*/1, sampled);
  for (const int threads : {1, 4}) {
    const RunOutput instrumented =
        TrainOnce(setup, /*instrumented=*/true, threads, sampled);
    ASSERT_EQ(instrumented.parameter_bytes.size(),
              baseline.parameter_bytes.size());
    for (size_t i = 0; i < baseline.parameter_bytes.size(); ++i) {
      ASSERT_EQ(instrumented.parameter_bytes[i].size(),
                baseline.parameter_bytes[i].size());
      EXPECT_EQ(std::memcmp(instrumented.parameter_bytes[i].data(),
                            baseline.parameter_bytes[i].data(),
                            baseline.parameter_bytes[i].size()),
                0)
          << "parameter " << i << " diverged at threads=" << threads;
    }
    EXPECT_DOUBLE_EQ(instrumented.result.final_train_loss,
                     baseline.result.final_train_loss);
    EXPECT_EQ(instrumented.result.best_epoch, baseline.result.best_epoch);
  }
}

TEST(TrainerMetricsTest, WeightsAreBitwiseIdenticalWithMetricsOnOrOff) {
  ExpectMetricsAreOffTheNumericPath(Fixture(10), /*sampled=*/false);
}

TEST(TrainerMetricsTest, SampledWeightsAreBitwiseIdenticalWithMetricsOnOrOff) {
  ExpectMetricsAreOffTheNumericPath(Fixture(14), /*sampled=*/true);
}

TEST(TrainerMetricsTest, EpochMetricsCoverEveryEpoch) {
  Fixture setup(11);
  const RunOutput run = TrainOnce(setup, /*instrumented=*/true, /*threads=*/1);
  ASSERT_EQ(static_cast<int>(run.result.epoch_metrics.size()),
            run.result.epochs_run);
  int64_t forward_total = 0, backward_total = 0, step_total = 0;
  int64_t eval_total = 0;
  for (size_t i = 0; i < run.result.epoch_metrics.size(); ++i) {
    const EpochMetrics& epoch = run.result.epoch_metrics[i];
    EXPECT_EQ(epoch.epoch, static_cast<int>(i));
    EXPECT_GT(epoch.train_loss, 0.0);
    forward_total += epoch.forward_ns;
    backward_total += epoch.backward_ns;
    step_total += epoch.step_ns;
    eval_total += epoch.eval_ns;
  }
  // Each phase ran and took measurable time overall.
  EXPECT_GT(forward_total, 0);
  EXPECT_GT(backward_total, 0);
  EXPECT_GT(step_total, 0);
  EXPECT_GT(eval_total, 0);
}

// A sampled epoch sums its minibatches' phases into one EpochMetrics.
TEST(TrainerMetricsTest, SampledEpochMetricsCoverEveryEpoch) {
  Fixture setup(15);
  const RunOutput run = TrainOnce(setup, /*instrumented=*/true,
                                  /*threads=*/1, /*sampled=*/true);
  EXPECT_EQ(run.result.epochs_run, 20);
  ASSERT_EQ(static_cast<int>(run.result.epoch_metrics.size()),
            run.result.epochs_run);
  for (size_t i = 0; i < run.result.epoch_metrics.size(); ++i) {
    const EpochMetrics& epoch = run.result.epoch_metrics[i];
    EXPECT_EQ(epoch.epoch, static_cast<int>(i));
    EXPECT_GT(epoch.forward_ns, 0) << "epoch " << i;
    EXPECT_GT(epoch.train_loss, 0.0) << "epoch " << i;
  }
}

TEST(TrainerMetricsTest, UninstrumentedRunCollectsNothing) {
  Fixture setup(12);
  const RunOutput run =
      TrainOnce(setup, /*instrumented=*/false, /*threads=*/1);
  EXPECT_TRUE(run.result.epoch_metrics.empty());
}

TEST(TrainerMetricsTest, TelemetrySeesTrainerAndKernelMetrics) {
  Fixture setup(13);
  SetTelemetryEnabled(true);
  ResetTelemetry();
  Rng rng(12);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 4), rng);
  TrainRun run;
  run.options.epochs = 5;
  TrainNodeClassifier(*model, setup.graph, setup.split,
                      StrategyConfig::None(), run);
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(false);
  ResetTelemetry();
  // Trainer phases.
  ASSERT_NE(snapshot.Find("train.forward"), nullptr);
  ASSERT_NE(snapshot.Find("train.backward"), nullptr);
  ASSERT_NE(snapshot.Find("train.step"), nullptr);
  EXPECT_EQ(snapshot.Find("train.forward")->count, 5);
  // Kernel-level metrics recorded underneath them.
  ASSERT_NE(snapshot.Find("tensor.gemm"), nullptr);
  ASSERT_NE(snapshot.Find("sparse.spmm"), nullptr);
  ASSERT_NE(snapshot.Find("train.adam_step"), nullptr);
  EXPECT_EQ(snapshot.Find("train.adam_step")->count, 5);
  EXPECT_GT(snapshot.Find("sparse.spmm")->items, 0);
}

}  // namespace
}  // namespace skipnode
