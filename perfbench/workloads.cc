// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "base/rng.h"
#include "base/telemetry.h"
#include "nn/model_factory.h"
#include "tensor/pool.h"

namespace perfbench {
namespace {

using skipnode::MonotonicNanos;
using skipnode::StrategyConfig;

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  // Table 8's setting: deep full-batch GCN on Cora-sized data. Dense
  // 2708 x 64 GEMMs over nine layers outweigh the sparse products.
  WorkloadSpec cora;
  cora.name = "cora_deep";
  cora.dataset.name = "cora_like";
  cora.per_class = 20;
  cora.num_val = 500;
  cora.num_test = 1000;
  cora.model = "GCN";
  cora.config.hidden_dim = 64;
  cora.config.num_layers = 9;
  cora.config.dropout = 0.5f;
  cora.strategy = StrategyConfig::SkipNodeU(0.5f);
  cora.train.epochs = 20;
  cora.train.learning_rate = 0.05;
  cora.accuracy_floor = 0.2;
  cora.train_runs_per_s = 0.27;  // 4 runs, 76 epochs at 15 s
  cora.setup_reps = 7;
  specs.push_back(cora);

  // Full-batch GCN over a dense streamed graph with narrow layers: the
  // masked SpMM over a million entries per layer dominates.
  WorkloadSpec synth = cora;
  synth.name = "synth_deep";
  synth.dataset.name = "synth";
  synth.dataset.nodes = 20000;
  synth.dataset.avg_degree = 50.0;
  synth.per_class = 0;
  synth.train_fraction = 0.2;
  synth.val_fraction = 0.1;
  synth.config.hidden_dim = 16;
  synth.config.num_layers = 8;
  synth.config.dropout = 0.0f;
  synth.train.epochs = 15;
  synth.accuracy_floor = 0.15;
  synth.train_runs_per_s = 0.2;  // 3 runs, 42 epochs at 15 s
  synth.setup_reps = 5;
  specs.push_back(synth);

  // Neighbor-sampled minibatches over a large graph: block sampling and
  // streaming construction dominate.
  WorkloadSpec sampled = synth;
  sampled.name = "sampled_synth";
  sampled.dataset.nodes = 30000;
  sampled.dataset.avg_degree = 100.0;
  sampled.train_fraction = 0.1;
  sampled.config.num_layers = 3;
  sampled.config.dropout = 0.5f;
  sampled.sampling.fanouts = {4, 4, 4};
  sampled.sampling.batch_size = 256;
  sampled.train.epochs = 10;
  sampled.train.learning_rate = 0.01;
  sampled.accuracy_floor = 0.5;
  sampled.train_runs_per_s = 0.2;  // 3 runs, 27 epochs at 15 s
  specs.push_back(sampled);

  // A linear-head model served open-loop: queueing, batching and the
  // row-sliced forward Gemm dominate.
  WorkloadSpec serve = cora;
  serve.name = "serve_openloop";
  serve.model = "SGC";
  serve.config.num_layers = 3;
  serve.train.epochs = 30;
  serve.train.learning_rate = 0.01;
  serve.accuracy_floor = 0.5;
  // Four runs, 116 epochs: at a 20-ms epoch more samples would put the
  // tail percentile onto single host stalls. Most of the run serves.
  serve.train_runs_per_s = 0.27;
  serve.setup_reps = 9;
  serve.nominal_share = 0.6;
  // Its knee lies inside the goodput ladder: longer probes steady it.
  serve.probe_seconds = 1.0;
  specs.push_back(serve);
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec>* const specs =
      new std::vector<WorkloadSpec>(MakeSpecs());
  return *specs;
}

uint64_t Fnv(uint64_t hash, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Outstanding requests at which a ladder probe stops: fifty milliseconds of
// offered load, well past the p99 limit, small enough that an overloaded
// rung drains quickly.
int64_t OutstandingCap(double rate_rps) {
  return 64 + static_cast<int64_t>(rate_rps * 0.05);
}

int64_t CsrBuildNanos() {
  if (!skipnode::TelemetryEnabled()) return 0;
  const skipnode::TelemetrySnapshot snapshot = skipnode::SnapshotTelemetry();
  const skipnode::MetricStat* stat = snapshot.Find("sparse.csr_build");
  return stat == nullptr ? 0 : stat->total_ns;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(MonotonicNanos() - start_ns) / 1e9;
}

std::unique_ptr<skipnode::Model> InitModel(const WorkloadSpec& spec,
                                           const skipnode::Graph& graph) {
  skipnode::ModelConfig config = spec.config;
  config.in_dim = graph.feature_dim();
  config.out_dim = graph.num_classes();
  skipnode::Rng rng(kDataSeed * 0x9e3779b97f4a7c15ULL + 2);
  return skipnode::MakeModel(spec.model, config, rng);
}

skipnode::TrainRun MakeTrainRun(const WorkloadSpec& spec) {
  skipnode::TrainRun run;
  run.options = spec.train;
  run.options.seed = kDataSeed * 0x9e3779b97f4a7c15ULL + 3;
  run.sampling = spec.sampling;
  return run;
}

Prepared Prepare(const WorkloadSpec& spec, int reps) {
  Prepared prepared;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    // Drop the previous repetition first so peak RSS holds one copy, and
    // empty the matrix pool so every repetition pays the pool fill.
    prepared.graph.reset();
    prepared.initial.reset();
    skipnode::GlobalMatrixPool().Trim(0);
    const int64_t csr_before = CsrBuildNanos();
    const int64_t start = MonotonicNanos();
    skipnode::DatasetRequest request = spec.dataset;
    request.seed = kDataSeed;
    prepared.graph = std::make_unique<skipnode::Graph>(
        skipnode::DatasetRegistry::Global().Build(request));
    prepared.build_s = SecondsSince(start);
    const skipnode::Graph& graph = *prepared.graph;
    skipnode::Rng split_rng(kDataSeed * 0x9e3779b97f4a7c15ULL + 1);
    prepared.split =
        spec.per_class > 0
            ? skipnode::PublicSplit(graph, spec.per_class, spec.num_val,
                                    spec.num_test, split_rng)
            : skipnode::RandomSplit(graph, spec.train_fraction,
                                    spec.val_fraction, split_rng);
    std::unique_ptr<skipnode::Model> model = InitModel(spec, graph);
    const int64_t freeze_start = MonotonicNanos();
    prepared.initial = std::make_shared<const skipnode::FrozenModel>(
        skipnode::FrozenModel::Freeze(*model, graph, spec.strategy));
    prepared.freeze_s = SecondsSince(freeze_start);
    // The first forward inside Freeze builds any adjacency the dataset left
    // lazy, so CSR construction is counted up to here.
    prepared.csr_build_s =
        static_cast<double>(CsrBuildNanos() - csr_before) / 1e9;
    // Warm-up: one training epoch fills the matrix pool and builds the lazy
    // transpose plan; the model it trains is thrown away.
    skipnode::TrainRun warm = MakeTrainRun(spec);
    warm.options.epochs = 1;
    skipnode::TrainNodeClassifier(*model, graph, prepared.split,
                                  spec.strategy, warm);
    prepared.setup_s.push_back(SecondsSince(start));
  }
  return prepared;
}

uint64_t ParameterDigest(skipnode::Model& model) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const skipnode::Parameter* p : model.Parameters()) {
    hash = Fnv(hash, p->name.data(), p->name.size());
    const int shape[2] = {p->value.rows(), p->value.cols()};
    hash = Fnv(hash, shape, sizeof(shape));
    hash = Fnv(hash, p->value.data(),
               sizeof(float) * static_cast<size_t>(p->value.size()));
  }
  return hash;
}

int TrainRuns(const WorkloadSpec& spec, double seconds) {
  return std::max(2, static_cast<int>(std::lround(spec.train_runs_per_s *
                                                  seconds)));
}

TrainOutcome TimedTraining(const WorkloadSpec& spec, const Prepared& prepared) {
  TrainOutcome outcome;
  outcome.model = InitModel(spec, *prepared.graph);
  skipnode::TrainRun run = MakeTrainRun(spec);
  int64_t last_ns = 0;
  run.on_epoch = [&](int epoch, double loss, double, double) {
    const int64_t now = MonotonicNanos();
    if (epoch > 0) {
      outcome.epoch_ms.push_back(static_cast<double>(now - last_ns) / 1e6);
    }
    outcome.finite = outcome.finite && std::isfinite(loss);
    last_ns = now;
  };
  outcome.result = skipnode::TrainNodeClassifier(
      *outcome.model, *prepared.graph, prepared.split, spec.strategy, run);
  outcome.digest = ParameterDigest(*outcome.model);
  return outcome;
}

skipnode::ServeOptions ServingOptions() {
  skipnode::ServeOptions options;
  // Two workers and the generator: at most three busy threads, within
  // nproc on any host with three cores or more.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  options.workers = std::clamp(cores - 1, 1, 2);
  options.max_batch_rows = kMaxBatchRows;
  options.batch_window_us = kBatchWindowUs;
  return options;
}

void Verdict::Fail(const char* what) {
  std::printf("CHECK FAILED: %s\n", what);
  correct = false;
}

NominalResult ServeNominal(skipnode::InferenceServer& server,
                           const SnapshotPair& pair, uint64_t seed,
                           double seconds, Verdict* verdict) {
  const Schedule schedule = MakeSchedule(
      seed, kNominalRps, static_cast<int64_t>(seconds * 1e9),
      /*min_requests=*/3 * kWindow, pair.first->num_nodes(),
      kSwapEveryNs);
  NominalResult result;
  int64_t failed = 0;
  for (result.attempts = 1;; ++result.attempts) {
    // A second of offered load: only a backlog that keeps growing stops the
    // nominal phase, not the burst a generator stall releases.
    result.phase = RunPhase(server, schedule, pair,
                            static_cast<int64_t>(kNominalRps));
    verdict->attempted += result.phase.sent;
    failed += result.phase.not_ok + result.phase.wrong;
    result.verdict = JudgeRung(result.phase);
    if (!result.verdict.generator_behind || result.attempts == 2) break;
  }
  const PhaseResult& phase = result.phase;
  result.p50_us = WindowedPercentile(phase.latency_us, kWindow, 50.0);
  std::printf("serve nominal %.0f req/s (attempt %d): %lld sent, %zu swaps, "
              "windowed p50 %.2f us, p99 %.2f us; generator lag p50 %.2f p99 "
              "%.2f max %.2f us; submit p99 %.2f us\n",
              kNominalRps, result.attempts,
              static_cast<long long>(phase.sent), phase.swap_us.size(),
              result.p50_us, result.verdict.p99_us,
              Median(phase.lag_us), Percentile(phase.lag_us, 99.0),
              Percentile(phase.lag_us, 100.0),
              Percentile(phase.submit_us, 99.0));
  verdict->failed += failed;
  if (failed > 0) {
    verdict->Fail("a served response failed or differed from its snapshot");
  }
  // Falling behind or backing up is a measurement of the host and the
  // server, not a wrong output: it is flagged, and the verdict stays about
  // the outputs checked above.
  if (result.verdict.generator_behind) {
    std::printf("FLAGGED: the generator fell behind at the nominal rate in "
                "both attempts; its latencies include that lag\n");
  }
  if (phase.aborted) {
    std::printf("FLAGGED: a second of offered load was outstanding at the "
                "nominal rate; the phase was cut short\n");
  }
  return result;
}

RungResult JudgeRung(const PhaseResult& phase) {
  RungResult rung;
  rung.sent = phase.sent;
  rung.failed = phase.not_ok + phase.wrong;
  rung.aborted = phase.aborted;
  if (phase.sent > 0) {
    rung.generator_behind =
        WindowedPercentile(phase.lag_us, kWindow, 99.0) > 0.25 * kP99LimitUs;
    rung.p99_us = WindowedPercentile(phase.latency_us, kWindow, 99.0);
    rung.backlog_growing = BacklogGrowing(phase.latency_us, kP99LimitUs);
  }
  return rung;
}

double MeasureGoodput(skipnode::InferenceServer& server,
                      const WorkloadSpec& spec, const SnapshotPair& pair,
                      uint64_t seed, const RungResult& nominal,
                      Verdict* verdict) {
  const std::vector<double> rates =
      LadderRates(kNominalRps, kLadderRatio, kLadderRungs);
  const auto probe = [&](int k, int attempt) {
    const double rate = rates[static_cast<size_t>(k)];
    const double seconds =
        std::max(spec.probe_seconds, 3.0 * kWindow / rate);
    const Schedule schedule = MakeSchedule(
        seed + 2 * static_cast<uint64_t>(k) + static_cast<uint64_t>(attempt),
        rate, static_cast<int64_t>(seconds * 1e9),
        /*min_requests=*/3 * kWindow, pair.first->num_nodes(),
        kSwapEveryNs);
    const RungResult rung =
        JudgeRung(RunPhase(server, schedule, pair, OutstandingCap(rate)));
    verdict->attempted += rung.sent;
    verdict->failed += rung.failed;
    if (rung.failed > 0) verdict->Fail("a ladder response failed or differed");
    const bool pass = RungPasses(rung, kP99LimitUs);
    std::printf("ladder rung %d %.1f req/s: %lld sent, windowed p99 %.2f us"
                "%s%s%s -> %s\n",
                k, rate, static_cast<long long>(rung.sent), rung.p99_us,
                rung.aborted ? ", aborted" : "",
                rung.backlog_growing ? ", backlog growing" : "",
                rung.generator_behind ? ", generator behind" : "",
                pass ? "pass" : "miss");
    return pass;
  };
  const int best = HighestPassingRung(kLadderRungs, [&](int k) {
    if (k == 0) return RungPasses(nominal, kP99LimitUs);
    return probe(k, 0) || probe(k, 1);
  });
  return best >= 0 ? rates[static_cast<size_t>(best)] : 0.0;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
