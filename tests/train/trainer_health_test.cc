// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// End-to-end exercise of the numerical-health guardrails (DESIGN §8):
// deterministic fault injection, detection, snapshot rollback with LR
// backoff, and the two invariants the design promises — a guarded run with
// no fault is bitwise identical to an unguarded one, and the whole recovery
// path reproduces bitwise across thread counts.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
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

int CountEvents(const std::vector<HealthEvent>& log, HealthEventKind kind) {
  return static_cast<int>(std::count_if(
      log.begin(), log.end(),
      [kind](const HealthEvent& e) { return e.kind == kind; }));
}

FaultPlan UpdateNaNAt(int epoch) {
  FaultPlan plan;
  plan.enabled = true;
  plan.site = FaultSite::kUpdate;
  plan.kind = FaultKind::kNaN;
  plan.epoch = epoch;
  plan.elements = 4;
  return plan;
}

// The acceptance scenario: a NaN injected into a parameter update at epoch
// 20 is detected the same epoch, the trainer rolls back and decays the LR,
// and the run still finishes with a finite loss and above-chance accuracy.
TEST(TrainerHealthTest, InjectedNaNTriggersRollbackAndRunStillConverges) {
  Fixture setup(1);
  Rng rng(2);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  TrainRun run;
  run.options.epochs = 80;
  run.options.seed = 17;
  run.health.enabled = true;
  run.fault = UpdateNaNAt(20);

  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(), run);

  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kFaultInjected),
            1);
  EXPECT_EQ(
      CountEvents(result.health_log, HealthEventKind::kNonFiniteParameter),
      1);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kRollback), 1);
  for (const HealthEvent& event : result.health_log) {
    EXPECT_EQ(event.epoch, 20);
  }
  EXPECT_EQ(result.rollbacks, 1);
  EXPECT_FLOAT_EQ(result.final_learning_rate,
                  run.options.learning_rate * run.health.lr_backoff);
  EXPECT_EQ(result.epochs_run, 80);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
  const double chance = 1.0 / setup.graph.num_classes();
  EXPECT_GT(result.test_accuracy, chance * 2.5);
}

TEST(TrainerHealthTest, ActivationFaultIsCaughtAtTheLossCheck) {
  Fixture setup(2);
  Rng rng(3);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  TrainRun run;
  run.options.epochs = 30;
  run.health.enabled = true;
  run.fault.enabled = true;
  run.fault.site = FaultSite::kActivation;
  run.fault.kind = FaultKind::kInf;
  run.fault.epoch = 10;
  run.fault.elements = 1 << 20;  // Clamped: corrupt the whole logit matrix.

  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(), run);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kNonFiniteLoss),
            1);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kRollback), 1);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

TEST(TrainerHealthTest, GradientFaultIsCaughtBeforeTheOptimizerStep) {
  Fixture setup(3);
  Rng rng(4);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  TrainRun run;
  run.options.epochs = 30;
  run.health.enabled = true;
  run.fault.enabled = true;
  run.fault.site = FaultSite::kGradient;
  run.fault.kind = FaultKind::kNaN;
  run.fault.epoch = 10;

  std::vector<HealthEvent> sink;
  run.health_log = &sink;
  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(), run);
  EXPECT_EQ(
      CountEvents(result.health_log, HealthEventKind::kNonFiniteGradient), 1);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kRollback), 1);
  // The bad gradient never reached Step, so parameters stayed finite — no
  // kNonFiniteParameter entry.
  EXPECT_EQ(
      CountEvents(result.health_log, HealthEventKind::kNonFiniteParameter),
      0);
  // The external sink mirrors the canonical log.
  ASSERT_EQ(sink.size(), result.health_log.size());
  for (size_t i = 0; i < sink.size(); ++i) {
    EXPECT_EQ(sink[i].kind, result.health_log[i].kind);
    EXPECT_EQ(sink[i].epoch, result.health_log[i].epoch);
    EXPECT_EQ(sink[i].detail, result.health_log[i].detail);
  }
}

TEST(TrainerHealthTest, ExhaustedRollbackBudgetHaltsTraining) {
  Fixture setup(4);
  Rng rng(5);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  TrainRun run;
  run.options.epochs = 50;
  run.health.enabled = true;
  run.health.max_rollbacks = 0;
  run.fault = UpdateNaNAt(10);

  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(), run);
  EXPECT_EQ(
      CountEvents(result.health_log, HealthEventKind::kRecoveryExhausted), 1);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kRollback), 0);
  EXPECT_EQ(result.rollbacks, 0);
  EXPECT_EQ(result.epochs_run, 11);  // Halted at the faulted epoch.
}

// DESIGN §8's first invariant: the guardrails are pure reads, so enabling
// them on a healthy run must not change one bit of the result.
TEST(TrainerHealthTest, GuardedRunWithoutFaultIsBitwiseIdentical) {
  Fixture setup(5);
  TrainResult results[2];
  for (int i = 0; i < 2; ++i) {
    Rng rng(6);
    auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
    TrainRun run;
    run.options.epochs = 25;
    run.options.seed = 23;
    run.health.enabled = (i == 1);
    run.health.check_every = 2;
    results[i] = TrainNodeClassifier(*model, setup.graph, setup.split,
                                     StrategyConfig::SkipNodeU(0.5f), run);
  }
  EXPECT_DOUBLE_EQ(results[0].final_train_loss, results[1].final_train_loss);
  EXPECT_DOUBLE_EQ(results[0].best_val_accuracy,
                   results[1].best_val_accuracy);
  EXPECT_DOUBLE_EQ(results[0].test_accuracy, results[1].test_accuracy);
  EXPECT_EQ(results[0].best_epoch, results[1].best_epoch);
  EXPECT_TRUE(results[1].health_log.empty());
}

// DESIGN §8's second invariant: detection, rollback, and recovery all stay
// on the row-ownership parallel contract, so the whole faulted run
// reproduces bitwise at any thread count.
TEST(TrainerHealthTest, RecoveryIsBitwiseIdenticalAcrossThreadCounts) {
  Fixture setup(6);
  TrainResult results[2];
  const int thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    SetParallelThreadCount(thread_counts[i]);
    Rng rng(7);
    auto model = MakeModel("GCN", ConfigFor(setup.graph, 4), rng);
    TrainRun run;
    run.options.epochs = 40;
    run.options.seed = 31;
    run.health.enabled = true;
    run.fault = UpdateNaNAt(15);
    results[i] = TrainNodeClassifier(*model, setup.graph, setup.split,
                                     StrategyConfig::SkipNodeU(0.5f), run);
  }
  SetParallelThreadCount(0);
  ASSERT_EQ(results[0].health_log.size(), results[1].health_log.size());
  for (size_t i = 0; i < results[0].health_log.size(); ++i) {
    EXPECT_EQ(results[0].health_log[i].kind, results[1].health_log[i].kind);
    EXPECT_EQ(results[0].health_log[i].epoch,
              results[1].health_log[i].epoch);
    EXPECT_EQ(results[0].health_log[i].detail,
              results[1].health_log[i].detail);
  }
  EXPECT_EQ(results[0].rollbacks, results[1].rollbacks);
  EXPECT_DOUBLE_EQ(results[0].final_train_loss, results[1].final_train_loss);
  EXPECT_DOUBLE_EQ(results[0].best_val_accuracy,
                   results[1].best_val_accuracy);
  EXPECT_DOUBLE_EQ(results[0].test_accuracy, results[1].test_accuracy);
  EXPECT_EQ(results[0].best_epoch, results[1].best_epoch);
}

// Sampled epochs (DESIGN §15) run the same guarded step once per minibatch:
// the loss check fires per batch and names it, and the parameter scan runs
// once, after the epoch's last step.
TrainRun SampledRun(int epochs, const FaultPlan& fault) {
  TrainRun run;
  run.options.epochs = epochs;
  run.options.seed = 29;
  run.health.enabled = true;
  run.fault = fault;
  run.sampling.fanouts = {4, 4};
  run.sampling.batch_size = 24;
  return run;
}

TEST(TrainerHealthTest, SampledActivationFaultIsCaughtAtTheBatchLossCheck) {
  Fixture setup(8);
  Rng rng(9);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  FaultPlan fault;
  fault.enabled = true;
  fault.site = FaultSite::kActivation;
  fault.kind = FaultKind::kNaN;
  fault.epoch = 6;
  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::SkipNodeU(0.5f),
      SampledRun(20, fault));
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kFaultInjected),
            1);
  ASSERT_EQ(CountEvents(result.health_log, HealthEventKind::kNonFiniteLoss),
            1);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kRollback), 1);
  for (const HealthEvent& event : result.health_log) {
    EXPECT_EQ(event.epoch, 6);
    if (event.kind == HealthEventKind::kNonFiniteLoss) {
      // The one-shot fault strikes the epoch's first minibatch.
      EXPECT_NE(event.detail.find("(batch 0)"), std::string::npos)
          << event.detail;
    }
  }
  EXPECT_EQ(result.epochs_run, 20);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

// With the whole train split in one minibatch, the update NaN lands on the
// epoch's last step, so the end-of-epoch parameter scan is what catches it.
TEST(TrainerHealthTest, SampledUpdateFaultIsCaughtByTheEpochScan) {
  Fixture setup(9);
  Rng rng(10);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  TrainRun run = SampledRun(30, UpdateNaNAt(8));
  run.sampling.batch_size = static_cast<int>(setup.split.train.size());
  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::SkipNodeU(0.5f), run);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kFaultInjected),
            1);
  EXPECT_EQ(
      CountEvents(result.health_log, HealthEventKind::kNonFiniteParameter),
      1);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kNonFiniteLoss),
            0);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kRollback), 1);
  for (const HealthEvent& event : result.health_log) {
    EXPECT_EQ(event.epoch, 8);
  }
  EXPECT_EQ(result.rollbacks, 1);
  // The faulted epoch is never evaluated, yet the run goes on from the
  // restored snapshot to the last epoch and ends finite.
  EXPECT_NE(result.best_epoch, 8);
  EXPECT_EQ(result.epochs_run, 30);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
  for (const Parameter* p : model->Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      ASSERT_TRUE(std::isfinite(p->value.data()[i])) << p->name;
    }
  }
}

// With several minibatches per epoch, the update NaN from batch 0 poisons
// batch 1's loss. One rollback abandons the rest of the epoch: no later
// batch of it runs, so no second non-finite loss is logged.
TEST(TrainerHealthTest, SampledUpdateFaultAbandonsTheRestOfTheEpoch) {
  Fixture setup(9);
  Rng rng(10);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  const TrainResult result =
      TrainNodeClassifier(*model, setup.graph, setup.split,
                          StrategyConfig::SkipNodeU(0.5f),
                          SampledRun(30, UpdateNaNAt(8)));
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kFaultInjected),
            1);
  ASSERT_EQ(CountEvents(result.health_log, HealthEventKind::kNonFiniteLoss),
            1);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kRollback), 1);
  for (const HealthEvent& event : result.health_log) {
    EXPECT_EQ(event.epoch, 8);
    if (event.kind == HealthEventKind::kNonFiniteLoss) {
      EXPECT_NE(event.detail.find("(batch 1)"), std::string::npos)
          << event.detail;
    }
  }
  EXPECT_NE(result.best_epoch, 8);
  EXPECT_EQ(result.epochs_run, 30);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

TEST(TrainerHealthTest, SampledRecoveryIsBitwiseIdenticalAcrossThreadCounts) {
  Fixture setup(10);
  TrainResult results[2];
  std::vector<Matrix> parameters[2];
  const int thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    SetParallelThreadCount(thread_counts[i]);
    Rng rng(11);
    auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
    results[i] = TrainNodeClassifier(*model, setup.graph, setup.split,
                                     StrategyConfig::SkipNodeU(0.5f),
                                     SampledRun(20, UpdateNaNAt(5)));
    for (const Parameter* p : model->Parameters()) {
      parameters[i].push_back(p->value);
    }
  }
  SetParallelThreadCount(0);
  EXPECT_EQ(results[0].rollbacks, 1);
  ASSERT_EQ(results[0].health_log.size(), results[1].health_log.size());
  for (size_t i = 0; i < results[0].health_log.size(); ++i) {
    EXPECT_EQ(results[0].health_log[i].kind, results[1].health_log[i].kind);
    EXPECT_EQ(results[0].health_log[i].epoch,
              results[1].health_log[i].epoch);
    EXPECT_EQ(results[0].health_log[i].detail,
              results[1].health_log[i].detail);
  }
  EXPECT_EQ(results[0].rollbacks, results[1].rollbacks);
  EXPECT_DOUBLE_EQ(results[0].final_train_loss, results[1].final_train_loss);
  EXPECT_DOUBLE_EQ(results[0].test_accuracy, results[1].test_accuracy);
  EXPECT_EQ(results[0].best_epoch, results[1].best_epoch);
  ASSERT_EQ(parameters[0].size(), parameters[1].size());
  for (size_t i = 0; i < parameters[0].size(); ++i) {
    EXPECT_EQ(std::memcmp(parameters[0][i].data(), parameters[1][i].data(),
                          sizeof(float) * parameters[0][i].size()),
              0)
        << "parameter " << i;
  }
}

TEST(TrainerHealthTest, GradClippingCapsTheGlobalNorm) {
  Fixture setup(7);
  Rng rng(8);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  TrainRun run;
  run.options.epochs = 10;
  run.health.enabled = true;
  run.health.grad_clip_norm = 1e-3f;  // Tiny: every epoch should clip.
  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(), run);
  EXPECT_GT(CountEvents(result.health_log, HealthEventKind::kGradientClipped),
            0);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

}  // namespace
}  // namespace skipnode
