// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Node-classification training loop shared by every experiment: Adam + L2,
// per-epoch validation, model selection on best validation accuracy (the
// paper's protocol). Full-batch and minibatch-sampled epochs run the same
// guarded step per batch; an optional sink records the Figure-2 training
// dynamics.

#ifndef SKIPNODE_TRAIN_TRAINER_H_
#define SKIPNODE_TRAIN_TRAINER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/fault.h"
#include "core/strategies.h"
#include "graph/graph.h"
#include "graph/splits.h"
#include "nn/model.h"

namespace skipnode {

struct TrainOptions {
  int epochs = 200;
  float learning_rate = 0.01f;
  float weight_decay = 5e-4f;
  // Stop if validation accuracy has not improved for this many epochs
  // (<= 0 disables early stopping).
  int patience = 0;
  // Evaluate every `eval_every` epochs (validation + test tracking).
  int eval_every = 1;
  uint64_t seed = 1;
};

// Numerical-health guardrails (DESIGN §8). When enabled, the trainer checks
// the loss every epoch and scans gradients / parameters every `check_every`
// epochs; a non-finite value triggers a rollback to the last good in-memory
// parameter snapshot, a learning-rate backoff, and a fresh optimizer (so
// poisoned Adam moments die with the bad step) instead of silently training
// on garbage. All checks are pure reads: with no fault firing and
// `grad_clip_norm` at 0, a guarded run is bitwise identical to an unguarded
// one at any thread count.
struct HealthOptions {
  bool enabled = false;
  // Cadence of the gradient/parameter scans and snapshots (>= 1). The loss
  // scalar is checked every epoch regardless — it is already in hand.
  int check_every = 1;
  // Rollbacks allowed before the trainer gives up and returns early.
  int max_rollbacks = 3;
  // Learning-rate multiplier applied on every rollback (in (0, 1]).
  float lr_backoff = 0.5f;
  // Global gradient-norm clip applied before each step; 0 disables. Unlike
  // the scans, clipping changes the trajectory — it is a training knob, not
  // a pure guardrail.
  float grad_clip_norm = 0.0f;
};

// One entry in the health log.
enum class HealthEventKind {
  kFaultInjected,       // the fault-injection layer fired (testing only)
  kNonFiniteLoss,       // loss came back NaN/Inf
  kNonFiniteGradient,   // a parameter gradient failed the scan
  kNonFiniteParameter,  // a parameter value failed the post-step scan
  kGradientClipped,     // global grad norm exceeded grad_clip_norm
  kRollback,            // parameters restored from snapshot, LR decayed
  kRecoveryExhausted,   // max_rollbacks spent; training stopped early
};

struct HealthEvent {
  HealthEventKind kind;
  int epoch = 0;
  // Human-readable context: offending parameter, fault site, LR transition.
  std::string detail;
};

// Stable name for logs and CLI output.
const char* HealthEventKindName(HealthEventKind kind);

// Wall-clock split of one training epoch, in nanoseconds. Collected off the
// numeric path: the clock reads happen between phases, never inside a kernel,
// so collecting metrics cannot change any trained weight. `eval_ns` is zero
// on epochs where evaluation was skipped (TrainOptions::eval_every);
// `health_ns` covers the gradient probe/clip and the post-step parameter
// scan + snapshot, and is zero when the guardrails are off.
struct EpochMetrics {
  int epoch = 0;
  int64_t forward_ns = 0;
  int64_t backward_ns = 0;
  int64_t step_ns = 0;
  int64_t health_ns = 0;
  int64_t eval_ns = 0;
  double train_loss = 0.0;
};

struct TrainResult {
  double best_val_accuracy = 0.0;
  // Test accuracy at the best-validation epoch.
  double test_accuracy = 0.0;
  int best_epoch = -1;
  double final_train_loss = 0.0;
  int epochs_run = 0;
  // Guardrail outcomes (empty / zero when HealthOptions is disabled and no
  // fault was injected).
  std::vector<HealthEvent> health_log;
  int rollbacks = 0;
  // Learning rate at the end of the run (== options.learning_rate unless a
  // rollback decayed it).
  float final_learning_rate = 0.0f;
  // One entry per epoch run, populated only when TrainRun::collect_metrics
  // is set (empty otherwise).
  std::vector<EpochMetrics> epoch_metrics;
};

// Minibatch neighbor-sampled training (DESIGN §15). When enabled(), every
// epoch makes one pass over the shuffled train split in minibatches: each
// batch draws a fresh seed from the run Rng, expands its seed nodes into
// per-layer bipartite blocks (graph/sampler.h, skip-masked rows pruned
// before neighbor fetch), runs Model::ForwardSampled, and takes one
// optimizer step. Evaluation (and model selection) stays full-batch.
// Deterministic: a fixed TrainOptions::seed reproduces every batch — and
// every trained weight — bitwise at any thread count. Requires
// Model::SupportsSampledForward() and a strategy of kind kNone /
// kSkipNodeUniform / kSkipNodeBiased.
struct SamplingOptions {
  // Per-layer neighbor fanout caps, one entry per model layer (each >= 1).
  // Empty disables sampling (full-batch training, the bitwise reference).
  std::vector<int> fanouts;
  // Seed nodes per minibatch (>= 1). The last batch of an epoch may be
  // smaller.
  int batch_size = 512;

  bool enabled() const { return !fanouts.empty(); }
};

// Figure-2 instrumentation (TrainRun::dynamics): per epoch, the three
// quantities whose joint collapse the paper identifies as the cause of
// deep-GCN failure —
//   (a) MAD of the penultimate representation           (over-smoothing),
//   (b) gradient at the classification and input layers (gradient vanishing),
//   (c) total L2 norm of the model weights              (weight over-decay).
// Recording reads values the loop already holds, so it cannot change a
// trained weight. An epoch that rolls back (HealthOptions) skips the entries
// it did not reach, so the series stay one entry per epoch only on healthy
// runs.
struct DynamicsRecord {
  // One entry per epoch.
  std::vector<float> mad;
  // Frobenius norm of dLoss/dLogits restricted to training rows.
  std::vector<float> output_gradient_norm;
  // Gradient norm of the first (input-layer) weight matrix: the quantity
  // that back-propagation-induced vanishing drives to zero in deep stacks
  // (Figure 2b). SkipNode keeps it alive by letting gradients bypass
  // convolutions through skipped rows.
  std::vector<float> first_layer_gradient_norm;
  // Signed sum of dLoss/dLogits over training rows and classes — Theorem 1
  // predicts ~0 once the model over-smooths under class-balanced training.
  std::vector<float> output_gradient_signed_sum;
  // Sum of per-parameter L2 norms.
  std::vector<float> weight_norm;
  std::vector<float> train_loss;
  std::vector<float> val_accuracy;
};

// Observes training progress on evaluated epochs. The callback never sees
// the Rng and accuracy computation consumes no randomness, so attaching or
// removing it cannot change the TrainResult.
using EpochCallback = std::function<void(
    int epoch, double train_loss, double val_accuracy, double test_accuracy)>;

// A full training run: options plus optional instrumentation. Construct with
// designated initializers, e.g.
//   TrainNodeClassifier(model, graph, split, strategy,
//                       {.options = {.epochs = 400},
//                        .on_epoch = [](int e, double l, double v, double t) {
//                          ...
//                        }});
struct TrainRun {
  TrainOptions options;
  // Numerical-health guardrails; disabled by default.
  HealthOptions health;
  // Deterministic fault injection (base/fault.h); disabled by default. Used
  // by tests and the CLI to prove the recovery path end to end.
  FaultPlan fault;
  // Invoked after every epoch where evaluation ran (per options.eval_every
  // and always on the last epoch). Leave unset for silent training.
  EpochCallback on_epoch;
  // Optional external sink: when set, every HealthEvent is appended here as
  // it happens, in addition to TrainResult::health_log.
  std::vector<HealthEvent>* health_log = nullptr;
  // Collect per-epoch phase timings into TrainResult::epoch_metrics. Off the
  // numeric path: the trained weights are bitwise identical either way.
  bool collect_metrics = false;
  // Minibatch neighbor sampling; disabled (full-batch) by default.
  SamplingOptions sampling;
  // Optional Figure-2 sink: when set, every epoch appends to each series.
  // Needs full-batch training and options.eval_every == 1 (aborts
  // otherwise). Off the numeric path like the other instrumentation.
  DynamicsRecord* dynamics = nullptr;
};

// Trains `model` on `graph` under `strategy` and returns validation-selected
// test accuracy. Deterministic given run.options.seed.
TrainResult TrainNodeClassifier(Model& model, const Graph& graph,
                                const Split& split,
                                const StrategyConfig& strategy,
                                const TrainRun& run);

// One evaluation pass (no dropout, strategies in eval mode); returns logits.
// Takes no seed: in eval mode neither dropout nor any sampling strategy
// draws from the Rng, so the pass is deterministic by construction. The
// internal Rng exists only to satisfy the Forward interface.
Matrix EvaluateLogits(Model& model, const Graph& graph,
                      const StrategyConfig& strategy);

}  // namespace skipnode

#endif  // SKIPNODE_TRAIN_TRAINER_H_
