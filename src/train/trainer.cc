// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "autograd/health.h"
#include "base/check.h"
#include "base/telemetry.h"
#include "core/oversmoothing.h"
#include "serve/frozen_model.h"
#include "train/metrics.h"
#include "train/optimizer.h"

namespace skipnode {
namespace {

// Outcome of one guarded training epoch.
enum class StepStatus {
  kOk,          // stepped normally
  kRolledBack,  // fault detected, snapshot restored — skip this epoch's eval
  kHalt,        // rollback budget exhausted — stop training
};

std::string FormatDetail(const char* format, ...) {
  char buffer[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

}  // namespace

const char* HealthEventKindName(HealthEventKind kind) {
  switch (kind) {
    case HealthEventKind::kFaultInjected:
      return "fault-injected";
    case HealthEventKind::kNonFiniteLoss:
      return "non-finite-loss";
    case HealthEventKind::kNonFiniteGradient:
      return "non-finite-gradient";
    case HealthEventKind::kNonFiniteParameter:
      return "non-finite-parameter";
    case HealthEventKind::kGradientClipped:
      return "gradient-clipped";
    case HealthEventKind::kRollback:
      return "rollback";
    case HealthEventKind::kRecoveryExhausted:
      return "recovery-exhausted";
  }
  return "?";
}

TrainResult TrainNodeClassifier(Model& model, const Graph& graph,
                                const Split& split,
                                const StrategyConfig& strategy,
                                const TrainRun& run) {
  const TrainOptions& options = run.options;
  const HealthOptions& health = run.health;
  SKIPNODE_CHECK(graph.has_labels());
  SKIPNODE_CHECK(!split.train.empty());
  SKIPNODE_CHECK(options.eval_every >= 1);
  SKIPNODE_CHECK(health.check_every >= 1);
  SKIPNODE_CHECK(health.max_rollbacks >= 0);
  SKIPNODE_CHECK(health.lr_backoff > 0.0f && health.lr_backoff <= 1.0f);
  SKIPNODE_CHECK(health.grad_clip_norm >= 0.0f);
  SKIPNODE_CHECK(!run.fault.enabled || run.fault.parameter_index >= 0);
  Rng rng(options.seed);
  float learning_rate = options.learning_rate;
  Adam optimizer(learning_rate, options.weight_decay);
  const std::vector<Parameter*> parameters = model.Parameters();
  FaultInjector injector(run.fault);
  // The parameter a gradient or update fault corrupts.
  Parameter& fault_parameter =
      *parameters[run.fault.parameter_index % parameters.size()];

  // An epoch's batches are consecutive slices of `seed_order`: one slice
  // holding every train row for full-batch training, or shuffled minibatches
  // under sampling (DESIGN §15). The sampler and the mask callback live for
  // the whole run; the callback draws the per-batch SkipNode masks from the
  // run Rng, serially, inside SampleBlocks.
  const SamplingOptions& sampling = run.sampling;
  std::unique_ptr<NeighborSampler> sampler;
  LayerSkipMaskFn sampled_mask_fn;
  std::vector<int> seed_order = split.train;
  size_t batch_size = seed_order.size();
  if (sampling.enabled()) {
    SKIPNODE_CHECK_MSG(model.SupportsSampledForward(),
                       "model does not support sampled training");
    SKIPNODE_CHECK(sampling.batch_size >= 1);
    sampler = std::make_unique<NeighborSampler>(
        graph, SamplerConfig{sampling.fanouts});
    sampled_mask_fn = MakeSampledSkipMaskFn(
        graph, strategy, static_cast<int>(sampling.fanouts.size()), rng);
    batch_size = static_cast<size_t>(sampling.batch_size);
  }

  DynamicsRecord* const dynamics = run.dynamics;
  if (dynamics != nullptr) {
    SKIPNODE_CHECK_MSG(!sampling.enabled(),
                       "the dynamics sink needs full-batch training");
    SKIPNODE_CHECK_MSG(options.eval_every == 1,
                       "the dynamics sink needs eval_every == 1");
  }

  TrainResult result;
  result.final_learning_rate = learning_rate;

  const auto log_event = [&](HealthEventKind kind, int epoch,
                             std::string detail) {
    HealthEvent event{kind, epoch, std::move(detail)};
    if (run.health_log != nullptr) run.health_log->push_back(event);
    result.health_log.push_back(std::move(event));
  };

  // The last known-good parameter snapshot. Taken before the first step and
  // refreshed on every scan epoch that passes all checks; rollback restores
  // it verbatim. Plain copies — taking one cannot perturb training.
  std::vector<Matrix> snapshot;
  int snapshot_epoch = -1;
  const auto take_snapshot = [&](int epoch) {
    snapshot.clear();
    for (const Parameter* p : parameters) snapshot.push_back(p->value);
    snapshot_epoch = epoch;
  };

  // Restores the snapshot, decays the LR, and restarts the optimizer (a bad
  // step may have poisoned the Adam moments; fresh moments are the only
  // state guaranteed clean). Halts once the budget is spent.
  const auto rollback = [&](int epoch) {
    if (result.rollbacks >= health.max_rollbacks) {
      log_event(HealthEventKind::kRecoveryExhausted, epoch,
                FormatDetail("%d rollbacks spent", result.rollbacks));
      return StepStatus::kHalt;
    }
    ++result.rollbacks;
    for (size_t i = 0; i < parameters.size(); ++i) {
      parameters[i]->value = snapshot[i];
    }
    const float decayed = learning_rate * health.lr_backoff;
    log_event(HealthEventKind::kRollback, epoch,
              FormatDetail("restored epoch-%d snapshot, lr %g -> %g",
                           snapshot_epoch, learning_rate, decayed));
    learning_rate = decayed;
    result.final_learning_rate = learning_rate;
    optimizer = Adam(learning_rate, options.weight_decay);
    return StepStatus::kRolledBack;
  };

  // Phase timing for the current epoch. Clock reads sit between phases only
  // (never inside a kernel), so enabling them cannot perturb a single weight
  // bit. `now` collapses to a constant when nobody is listening, keeping the
  // untimed path free of clock syscalls.
  const bool timed = run.collect_metrics || TelemetryEnabled();
  EpochMetrics phase;
  const auto now = [timed]() { return timed ? MonotonicNanos() : 0; };

  const auto maybe_inject = [&](FaultSite site, int epoch, Matrix& target) {
    if (!injector.ShouldFire(site, epoch)) return;
    injector.Corrupt(target.data(), target.size(), epoch);
    log_event(HealthEventKind::kFaultInjected, epoch,
              FormatDetail("%s %s x%zu", FaultSiteName(site),
                           FaultKindName(run.fault.kind),
                           injector.events().back().indices.size()));
  };

  // One training epoch: a pass over the epoch's batches, one guarded step
  // each (loss check, backward, gradient fault, probe/clip, optimizer step,
  // update fault), then the parameter scan + snapshot once, after the last
  // step. A rollback abandons the rest of the epoch — the restored
  // parameters predate every batch of it. All Rng draws (shuffle, batch
  // seeds, masks, dropout) happen serially, so the epoch is bitwise
  // identical at any thread count.
  const auto train_epoch = [&](int epoch) {
    const bool scan_epoch =
        health.enabled &&
        (epoch % health.check_every == 0 || epoch == options.epochs - 1);
    if (sampler != nullptr) {
      // Fisher-Yates from the run Rng: a fresh minibatch partition per
      // epoch.
      for (size_t i = seed_order.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(rng.UniformInt(i));
        std::swap(seed_order[i - 1], seed_order[j]);
      }
    }
    double epoch_loss = 0.0;
    int num_batches = 0;
    for (size_t start = 0; start < seed_order.size(); start += batch_size) {
      // Forward over the whole graph, or over one minibatch's sampled
      // blocks. `ctx` and `batch` stay alive through Backward.
      const int64_t forward_start = now();
      Tape tape;
      tape.set_fast_math(strategy.fast_math);
      std::optional<StrategyContext> ctx;
      SampledBatch batch;
      Var logits;
      // The loss rows: the train split of the full graph, or the batch's
      // seeds, which are logit rows 0..n-1 of a sampled forward.
      std::vector<int> batch_labels, batch_rows;
      if (sampler == nullptr) {
        ctx.emplace(graph, strategy, /*training=*/true, rng);
        logits = model.Forward(tape, graph, *ctx, /*training=*/true, rng);
      } else {
        const size_t end = std::min(start + batch_size, seed_order.size());
        const std::vector<int> seeds(seed_order.begin() + start,
                                     seed_order.begin() + end);
        const uint64_t batch_seed = rng.Next();
        batch = sampler->SampleBlocks(seeds, batch_seed, sampled_mask_fn);
        logits = model.ForwardSampled(tape, graph, batch, strategy,
                                      /*training=*/true, rng);
        for (size_t i = 0; i < seeds.size(); ++i) {
          batch_labels.push_back(
              graph.labels()[static_cast<size_t>(seeds[i])]);
          batch_rows.push_back(static_cast<int>(i));
        }
      }
      maybe_inject(FaultSite::kActivation, epoch, tape.MutableValue(logits));
      const std::vector<int>& labels =
          sampler == nullptr ? graph.labels() : batch_labels;
      const std::vector<int>& rows =
          sampler == nullptr ? split.train : batch_rows;
      Var loss = tape.SoftmaxCrossEntropy(logits, labels, rows);
      const Var aux = model.AuxiliaryLoss(tape);
      if (aux.valid()) loss = tape.Add(loss, aux);
      const double loss_value = loss.value()(0, 0);
      epoch_loss += loss_value;
      ++num_batches;
      result.final_train_loss = epoch_loss / num_batches;
      phase.forward_ns += now() - forward_start;
      if (dynamics != nullptr) {
        dynamics->train_loss.push_back(static_cast<float>(loss_value));
      }
      if (health.enabled && !std::isfinite(loss_value)) {
        log_event(HealthEventKind::kNonFiniteLoss, epoch,
                  sampler == nullptr
                      ? FormatDetail("loss = %g", loss_value)
                      : FormatDetail("loss = %g (batch %d)", loss_value,
                                     num_batches - 1));
        return rollback(epoch);
      }

      const int64_t backward_start = now();
      Optimizer::ZeroGrad(parameters);
      tape.Backward(loss);
      maybe_inject(FaultSite::kGradient, epoch, fault_parameter.grad);
      phase.backward_ns += now() - backward_start;
      if (dynamics != nullptr) {
        // Figure 2b, before any clip: dLoss/dLogits over the loss rows, and
        // the first (input-layer) parameter's gradient.
        const Matrix& g = logits.grad();
        double sq = 0.0, signed_sum = 0.0;
        for (const int row : rows) {
          const float* values = g.row(row);
          for (int c = 0; c < g.cols(); ++c) {
            sq += static_cast<double>(values[c]) * values[c];
            signed_sum += values[c];
          }
        }
        dynamics->output_gradient_norm.push_back(
            static_cast<float>(std::sqrt(sq)));
        dynamics->output_gradient_signed_sum.push_back(
            static_cast<float>(signed_sum));
        dynamics->first_layer_gradient_norm.push_back(
            parameters.front()->grad.Norm());
      }
      if (scan_epoch || (health.enabled && health.grad_clip_norm > 0.0f)) {
        const int64_t probe_start = now();
        const GradientHealth grads = ProbeGradients(parameters);
        if (!grads.finite) {
          log_event(HealthEventKind::kNonFiniteGradient, epoch,
                    grads.first_bad);
          return rollback(epoch);
        }
        if (health.grad_clip_norm > 0.0f &&
            grads.global_norm > health.grad_clip_norm) {
          ScaleGradients(parameters,
                         static_cast<float>(health.grad_clip_norm /
                                            grads.global_norm));
          log_event(HealthEventKind::kGradientClipped, epoch,
                    FormatDetail("norm %g > %g", grads.global_norm,
                                 health.grad_clip_norm));
        }
        phase.health_ns += now() - probe_start;
      }

      const int64_t step_start = now();
      optimizer.Step(parameters);
      maybe_inject(FaultSite::kUpdate, epoch, fault_parameter.value);
      phase.step_ns += now() - step_start;
      if (dynamics != nullptr) {
        // Figure 2c: the weight norms after the update.
        float weight_norm = 0.0f;
        for (const Parameter* p : parameters) weight_norm += p->value.Norm();
        dynamics->weight_norm.push_back(weight_norm);
      }
    }
    if (scan_epoch) {
      const int64_t scan_start = now();
      std::string first_bad;
      if (!ParametersFinite(parameters, &first_bad)) {
        log_event(HealthEventKind::kNonFiniteParameter, epoch, first_bad);
        return rollback(epoch);
      }
      take_snapshot(epoch);
      phase.health_ns += now() - scan_start;
    }
    return StepStatus::kOk;
  };

  // Flushes the epoch's phase timings: into the process-wide telemetry
  // registry (no-ops when telemetry is off) and into the result when the
  // caller asked for per-epoch metrics. Called on every loop exit path.
  const auto finish_epoch = [&]() {
    if (timed) {
      RecordTiming("train.forward", phase.forward_ns);
      RecordTiming("train.backward", phase.backward_ns);
      RecordTiming("train.step", phase.step_ns);
      if (phase.health_ns > 0) RecordTiming("train.health", phase.health_ns);
      if (phase.eval_ns > 0) RecordTiming("train.eval", phase.eval_ns);
    }
    if (run.collect_metrics) result.epoch_metrics.push_back(phase);
  };

  if (health.enabled) take_snapshot(-1);

  int epochs_since_best = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    phase = EpochMetrics{};
    phase.epoch = epoch;
    const StepStatus status = train_epoch(epoch);
    result.epochs_run = epoch + 1;
    phase.train_loss = result.final_train_loss;
    if (status == StepStatus::kHalt) {
      finish_epoch();
      break;
    }
    // A rolled-back epoch re-evaluates nothing: the parameters are an older,
    // already-evaluated state.
    if (status == StepStatus::kRolledBack) {
      finish_epoch();
      continue;
    }

    // --- Periodic evaluation ----------------------------------------------
    if (epoch % options.eval_every != 0 && epoch != options.epochs - 1) {
      finish_epoch();
      continue;
    }
    bool out_of_patience = false;
    {
      const int64_t eval_start = now();
      Tape tape;
      tape.set_fast_math(strategy.fast_math);
      StrategyContext ctx(graph, strategy, /*training=*/false, rng);
      Var logits = model.Forward(tape, graph, ctx, /*training=*/false, rng);
      const double val_acc =
          Accuracy(logits.value(), graph.labels(), split.val);
      const double test_acc =
          Accuracy(logits.value(), graph.labels(), split.test);
      phase.eval_ns = now() - eval_start;
      if (dynamics != nullptr) {
        // Figure 2a: over-smoothing of the penultimate representation.
        const Matrix& penultimate = model.Penultimate();
        SKIPNODE_CHECK(!penultimate.empty());
        dynamics->mad.push_back(MeanAverageDistance(graph, penultimate));
        dynamics->val_accuracy.push_back(static_cast<float>(val_acc));
      }
      if (run.on_epoch) {
        run.on_epoch(epoch, result.final_train_loss, val_acc, test_acc);
      }
      if (val_acc > result.best_val_accuracy || result.best_epoch < 0) {
        result.best_val_accuracy = val_acc;
        result.test_accuracy = test_acc;
        result.best_epoch = epoch;
        epochs_since_best = 0;
      } else {
        epochs_since_best += options.eval_every;
        out_of_patience =
            options.patience > 0 && epochs_since_best >= options.patience;
      }
    }
    finish_epoch();
    if (out_of_patience) break;
  }
  return result;
}

Matrix EvaluateLogits(Model& model, const Graph& graph,
                      const StrategyConfig& strategy) {
  // Routed through the serving layer so there is exactly one eval-mode
  // forward in the codebase: FrozenModel::Freeze runs the pass this
  // function used to run inline (frozen_model_test pins the two bitwise).
  return FrozenModel::Freeze(model, graph, strategy).full_logits();
}

}  // namespace skipnode
