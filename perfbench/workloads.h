// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The four benchmark workloads and the phases every run goes through:
// set-up (dataset build, model init, freeze, warm-up epoch), repeated
// training runs timed epoch by epoch from the TrainRun::on_epoch callback,
// then open-loop serving of the trained model. main.cc reports these phases
// untraced; trace.cc replays the training with each layer call timed.

#ifndef SKIPNODE_PERFBENCH_WORKLOADS_H_
#define SKIPNODE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/strategies.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "graph/splits.h"
#include "nn/model.h"
#include "open_loop.h"
#include "serve/frozen_model.h"
#include "serve/inference_server.h"
#include "stats.h"
#include "train/trainer.h"

namespace perfbench {

// Pool width of every training phase: fixed, so results do not follow the
// host's core count. Serving runs with width 1: each server worker computes
// its row-sliced Gemm inline, so the generator and the workers are the only
// busy threads.
constexpr int kPoolWidth = 2;
constexpr int kServePoolWidth = 1;

// Serving, the same on every workload. Where each value comes from:
// - The server batches as bench/serve_latency.cc's serve sweep does: a
//   200 us window and a 256-row cap (also skipnode_serve's --batch-rows).
// - The nominal offered rate is a third of serve_openloop's goodput knee,
//   measured with this traffic (serve_goodput_rps: about 60k req/s on the
//   reference host, README), so batches carry program work, not only the
//   window, and a host stall stays far from the knee. It is fixed here
//   rather than re-measured per run, so every commit serves the same
//   offered load; the traced run prints serve.nominal_load_frac to show
//   where it sits against the knee it measures.
// - Assumptions, with no source in the repository: the 10 ms p99 limit of
//   the goodput ladder and a model swap every 50 ms.
// The ladder starts at the nominal rate, each rung 1.05x the last (one
// rung is well inside any bound), 63 rungs up to about 20x.
constexpr int kBatchWindowUs = 200;
constexpr int kMaxBatchRows = 256;
constexpr double kNominalRps = 20000.0;
constexpr double kP99LimitUs = 10000.0;
constexpr double kLadderRatio = 1.05;
constexpr int kLadderRungs = 63;
constexpr int64_t kSwapEveryNs = 50'000'000;

// Requests per latency window: serving percentiles are the median over
// windows of this many requests (stats.h WindowedPercentile), and 1000
// leaves ten requests beyond each window's p99.
constexpr size_t kWindow = 1000;

// Seeds the dataset, split, model init and training. It belongs to the
// workloads, not to the run: like a paper dataset, the training input is the
// same in every run, so the quality metrics repeat exactly and act as
// numerics checks. --seed drives the serving traffic.
constexpr uint64_t kDataSeed = 1;

struct WorkloadSpec {
  std::string name;
  skipnode::DatasetRequest dataset;
  // Split: PublicSplit(per_class, val, test) when per_class > 0, else
  // RandomSplit(train_fraction, val_fraction).
  int per_class = 0;
  int num_val = 0;
  int num_test = 0;
  double train_fraction = 0.0;
  double val_fraction = 0.0;
  std::string model;
  skipnode::ModelConfig config;  // in/out dims are filled from the graph
  skipnode::StrategyConfig strategy;
  skipnode::TrainOptions train;  // seed is derived from kDataSeed
  skipnode::SamplingOptions sampling;
  double accuracy_floor = 0.0;
  // Set-up repetitions of a timed run; setup_s is their median. Each one
  // starts with an empty matrix pool, so each pays the pool fill.
  int setup_reps = 3;
  // Whole training runs per second of --seconds (at least two runs). The
  // count depends only on --seconds, so every commit reports the same
  // number of epochs and the same tail percentile; it is sized to fill
  // about three quarters of a 15-s run on the reference host.
  double train_runs_per_s = 0.25;
  // Share of --seconds spent serving at the nominal rate.
  double nominal_share = 0.25;
  // Seconds per goodput-ladder probe (the traced run).
  double probe_seconds = 0.5;
};

// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// Everything set-up produces.
struct Prepared {
  std::unique_ptr<skipnode::Graph> graph;
  skipnode::Split split;
  // The initial (untrained) model, frozen: the second serving snapshot.
  std::shared_ptr<const skipnode::FrozenModel> initial;
  std::vector<double> setup_s;  // one entry per set-up repetition
  double build_s = 0.0;         // DatasetRegistry::Build of the last rep
  // sparse.csr_build time inside that build; 0 unless telemetry is on.
  double csr_build_s = 0.0;
  double freeze_s = 0.0;        // FrozenModel::Freeze of the last rep
};

// Runs set-up `reps` times (at least once) and keeps the last.
Prepared Prepare(const WorkloadSpec& spec, int reps);

// A freshly initialised model, identical on every call.
std::unique_ptr<skipnode::Model> InitModel(const WorkloadSpec& spec,
                                           const skipnode::Graph& graph);

// The workload's TrainRun options (callback not set).
skipnode::TrainRun MakeTrainRun(const WorkloadSpec& spec);

// FNV-1a over the names, shapes and float bits of every parameter.
uint64_t ParameterDigest(skipnode::Model& model);

// Training runs a timed run makes: max(2, round(train_runs_per_s x
// seconds)).
int TrainRuns(const WorkloadSpec& spec, double seconds);

// One timed training run (TrainNodeClassifier, untraced).
struct TrainOutcome {
  // on_epoch to on_epoch, from the end of epoch 0: the first epoch also
  // holds the trainer's own set-up (optimizer, sampler, mask function), so
  // it is left out, and a run of E epochs gives E - 1 samples.
  std::vector<double> epoch_ms;
  skipnode::TrainResult result;
  uint64_t digest = 0;
  bool finite = true;  // every epoch's loss was finite
  std::unique_ptr<skipnode::Model> model;
};
TrainOutcome TimedTraining(const WorkloadSpec& spec, const Prepared& prepared);

// A run's correctness verdict and operation counts (the result line's
// correct / attempted / failed).
struct Verdict {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Prints "CHECK FAILED: what" and marks the run incorrect.
  void Fail(const char* what);
};

// The server every serving phase runs: two workers (fewer on a host with
// under three cores), kBatchWindowUs, kMaxBatchRows.
skipnode::ServeOptions ServingOptions();

// The nominal-rate phase. A host stall can keep the generator from its
// schedule; such an attempt's latencies are not reported and the same
// schedule runs once more. When both attempts fall behind, the second is
// reported and flagged in the detail output.
struct NominalResult {
  PhaseResult phase;  // the attempt reported: the first on schedule, or the last
  RungResult verdict;  // JudgeRung of `phase`
  // Median over windows of kWindow requests of each window's median
  // latency: serve_p50_us. A host stall sinks the windows it lands in, not
  // the metric.
  double p50_us = 0.0;
  int attempts = 0;
};
// Runs the nominal phase, prints its detail line, and adds its requests and
// failures (every attempt's) to `verdict`.
NominalResult ServeNominal(skipnode::InferenceServer& server,
                           const SnapshotPair& pair, uint64_t seed,
                           double seconds, Verdict* verdict);

// The goodput ladder: the highest rung (rung 0 judged by `nominal`) that
// passes, found by bisection, where a rung misses only when two probes in a
// row miss. Prints one line per probe; returns 0 when rung 0 misses.
double MeasureGoodput(skipnode::InferenceServer& server,
                      const WorkloadSpec& spec, const SnapshotPair& pair,
                      uint64_t seed, const RungResult& nominal,
                      Verdict* verdict);
// The ladder verdict inputs of a phase, with windowed p99 latency. The
// generator fell behind its schedule when its windowed p99 lag exceeds a
// quarter of the limit.
RungResult JudgeRung(const PhaseResult& phase);

// Process peak resident set, in MB.
double PeakRssMb();

// Seconds since `start_ns` on the MonotonicNanos clock.
double SecondsSince(int64_t start_ns);

}  // namespace perfbench

#endif  // SKIPNODE_PERFBENCH_WORKLOADS_H_
