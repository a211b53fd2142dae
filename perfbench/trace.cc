// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "base/telemetry.h"
#include "core/skipnode.h"
#include "graph/sampler.h"
#include "train/metrics.h"
#include "train/optimizer.h"

namespace perfbench {
namespace {

using skipnode::MonotonicNanos;

// Nanoseconds since *mark; moves the mark to now.
int64_t Lap(int64_t* mark) {
  const int64_t now = MonotonicNanos();
  const int64_t elapsed = now - *mark;
  *mark = now;
  return elapsed;
}

// One replayed epoch, split by the layer call that spent the time (ns).
struct EpochTrace {
  int64_t total = 0;
  int64_t forward = 0;   // Tape + StrategyContext + Forward/ForwardSampled
  int64_t loss = 0;      // SoftmaxCrossEntropy (+ auxiliary loss)
  int64_t backward = 0;  // Tape::Backward
  int64_t step = 0;      // ZeroGrad + Optimizer::Step
  int64_t eval = 0;      // EvaluateLogits + accuracy
  int64_t sample = 0;    // NeighborSampler::SampleBlocks (incl. masks)
  int64_t mask = 0;      // the SkipNode mask callback inside SampleBlocks
};

struct Replay {
  std::vector<EpochTrace> epochs;
  uint64_t digest = 0;
  bool finite = true;
  int64_t batches = 0;
  int64_t edges_pruned = 0;
  int64_t edges_fetched = 0;
  int64_t mask_rows = 0;
  int64_t mask_skipped = 0;
  std::unique_ptr<skipnode::Model> model;
};

// TrainNodeClassifier's loop (no guardrails, no fault injection), rebuilt
// from public calls in the same order with the same Rng draws, so the
// trained parameters match the untraced run bit for bit.
Replay ReplayTraining(const WorkloadSpec& spec, const Prepared& prepared) {
  const skipnode::Graph& graph = *prepared.graph;
  const skipnode::Split& split = prepared.split;
  const skipnode::StrategyConfig& strategy = spec.strategy;
  Replay out;
  out.model = InitModel(spec, graph);
  skipnode::Model& model = *out.model;
  const skipnode::TrainRun run = MakeTrainRun(spec);
  skipnode::Rng rng(run.options.seed);
  skipnode::Adam optimizer(run.options.learning_rate,
                           run.options.weight_decay);
  const std::vector<skipnode::Parameter*> params = model.Parameters();

  EpochTrace* current = nullptr;
  const auto optimize = [&](skipnode::Tape& tape, skipnode::Var logits,
                            const std::vector<int>& labels,
                            const std::vector<int>& nodes, bool with_aux,
                            int64_t* mark) {
    skipnode::Var loss = tape.SoftmaxCrossEntropy(logits, labels, nodes);
    if (with_aux) {
      const skipnode::Var aux = model.AuxiliaryLoss(tape);
      if (aux.valid()) loss = tape.Add(loss, aux);
    }
    out.finite = out.finite && std::isfinite(loss.value()(0, 0));
    current->loss += Lap(mark);
    skipnode::Optimizer::ZeroGrad(params);
    current->step += Lap(mark);
    tape.Backward(loss);
    current->backward += Lap(mark);
    optimizer.Step(params);
    current->step += Lap(mark);
  };

  // Sampled-mode state, created in the trainer's order.
  std::unique_ptr<skipnode::NeighborSampler> sampler;
  skipnode::LayerSkipMaskFn inner_mask;
  skipnode::LayerSkipMaskFn traced_mask;
  std::vector<int> seed_order;
  if (spec.sampling.enabled()) {
    sampler = std::make_unique<skipnode::NeighborSampler>(
        graph, skipnode::SamplerConfig{spec.sampling.fanouts});
    inner_mask = skipnode::MakeSampledSkipMaskFn(
        graph, strategy, static_cast<int>(spec.sampling.fanouts.size()), rng);
    if (inner_mask) {
      traced_mask = [&](int layer, const std::vector<int>& dst) {
        const int64_t start = MonotonicNanos();
        std::vector<uint8_t> mask = inner_mask(layer, dst);
        current->mask += MonotonicNanos() - start;
        if (!mask.empty()) {
          out.mask_rows += static_cast<int64_t>(mask.size());
          out.mask_skipped += skipnode::CountSkipped(mask);
        }
        return mask;
      };
    }
    seed_order = split.train;
  }

  out.epochs.resize(static_cast<size_t>(run.options.epochs));
  for (EpochTrace& epoch : out.epochs) {
    current = &epoch;
    const int64_t epoch_start = MonotonicNanos();
    int64_t mark = epoch_start;
    if (!spec.sampling.enabled()) {
      skipnode::Tape tape;
      tape.set_fast_math(strategy.fast_math);
      skipnode::StrategyContext ctx(graph, strategy, /*training=*/true, rng);
      const skipnode::Var logits =
          model.Forward(tape, graph, ctx, /*training=*/true, rng);
      epoch.forward += Lap(&mark);
      optimize(tape, logits, graph.labels(), split.train, /*with_aux=*/true,
               &mark);
    } else {
      for (size_t i = seed_order.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(rng.UniformInt(i));
        std::swap(seed_order[i - 1], seed_order[j]);
      }
      const size_t batch_size = static_cast<size_t>(spec.sampling.batch_size);
      for (size_t start = 0; start < seed_order.size(); start += batch_size) {
        const size_t end = std::min(start + batch_size, seed_order.size());
        const std::vector<int> seeds(seed_order.begin() + start,
                                     seed_order.begin() + end);
        const uint64_t batch_seed = rng.Next();
        Lap(&mark);
        const skipnode::SampledBatch batch =
            sampler->SampleBlocks(seeds, batch_seed, traced_mask);
        epoch.sample += Lap(&mark);
        ++out.batches;
        out.edges_pruned += batch.edges_pruned;
        for (const skipnode::SampledLayer& layer : batch.layers) {
          // Every dst row holds its self entry; the rest were fetched.
          out.edges_fetched += layer.block->nnz() - layer.num_dst();
        }
        skipnode::Tape tape;
        tape.set_fast_math(strategy.fast_math);
        const skipnode::Var logits = model.ForwardSampled(
            tape, graph, batch, strategy, /*training=*/true, rng);
        std::vector<int> labels(seeds.size());
        std::vector<int> nodes(seeds.size());
        for (size_t i = 0; i < seeds.size(); ++i) {
          labels[i] = graph.labels()[static_cast<size_t>(seeds[i])];
          nodes[i] = static_cast<int>(i);
        }
        epoch.forward += Lap(&mark);
        optimize(tape, logits, labels, nodes, /*with_aux=*/false, &mark);
      }
    }
    const skipnode::Matrix logits =
        skipnode::EvaluateLogits(model, graph, strategy);
    const double val = skipnode::Accuracy(logits, graph.labels(), split.val);
    const double test = skipnode::Accuracy(logits, graph.labels(), split.test);
    out.finite = out.finite && std::isfinite(val) && std::isfinite(test);
    epoch.eval += Lap(&mark);
    epoch.total = mark - epoch_start;
  }
  out.digest = ParameterDigest(model);
  return out;
}

// The per-epoch strategy work of a full-batch run, replayed on its own as
// table8's overhead panel does: the StrategyContext with its per-layer
// adjacency, plus one SkipNode mask per middle layer.
struct StrategyReplay {
  int64_t ns = 0;
  int64_t rows = 0;
  int64_t skipped = 0;
};

StrategyReplay ReplayStrategy(const WorkloadSpec& spec,
                              const skipnode::Graph& graph, int epochs) {
  const skipnode::StrategyConfig& strategy = spec.strategy;
  const int layers = spec.config.num_layers;
  skipnode::Rng rng(kDataSeed * 0x9e3779b97f4a7c15ULL + 5);
  StrategyReplay out;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const int64_t start = MonotonicNanos();
    skipnode::StrategyContext ctx(graph, strategy, /*training=*/true, rng);
    for (int l = 0; l < layers; ++l) ctx.LayerAdjacency(l);
    for (int l = 1; l < layers - 1; ++l) {
      std::vector<uint8_t> mask;
      if (strategy.kind == skipnode::StrategyKind::kSkipNodeUniform) {
        mask = skipnode::SampleSkipMaskUniform(graph.num_nodes(),
                                               strategy.rate, rng);
      } else if (strategy.kind == skipnode::StrategyKind::kSkipNodeBiased) {
        mask = skipnode::SampleSkipMaskBiased(graph.degrees(), strategy.rate,
                                              rng);
      }
      out.rows += static_cast<int64_t>(mask.size());
      out.skipped += skipnode::CountSkipped(mask);
    }
    out.ns += MonotonicNanos() - start;
  }
  return out;
}

// One metric of a telemetry snapshot (zeros when absent).
skipnode::MetricStat Find(const skipnode::TelemetrySnapshot& snapshot,
                          const char* name) {
  const skipnode::MetricStat* stat = snapshot.Find(name);
  return stat == nullptr ? skipnode::MetricStat{} : *stat;
}

double Ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

int RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Verdict verdict;

  // Set-up with telemetry on, so the dataset build's CSR time is counted.
  skipnode::SetTelemetryEnabled(true);
  const Prepared prepared = Prepare(spec, /*reps=*/1);
  skipnode::SetTelemetryEnabled(false);
  const skipnode::Graph& graph = *prepared.graph;

  // The untraced reference: the training the end-to-end metrics time.
  const TrainOutcome reference = TimedTraining(spec, prepared);
  verdict.attempted += 2;
  const double untraced_p50 = Median(reference.epoch_ms);

  // The traced replay.
  skipnode::ResetTelemetry();
  skipnode::SetTelemetryEnabled(true);
  const Replay replay = ReplayTraining(spec, prepared);
  skipnode::SetTelemetryEnabled(false);
  const skipnode::TelemetrySnapshot train_snapshot =
      skipnode::SnapshotTelemetry();
  if (!reference.finite || !replay.finite) {
    ++verdict.failed;
    verdict.Fail("a non-finite loss or accuracy");
  }
  if (replay.digest != reference.digest) {
    ++verdict.failed;
    verdict.Fail("the traced replay trained different parameters than "
                 "TrainNodeClassifier");
  }
  std::printf("digest untraced %016llx, traced %016llx\n",
              static_cast<unsigned long long>(reference.digest),
              static_cast<unsigned long long>(replay.digest));

  const double epochs = static_cast<double>(replay.epochs.size());
  std::vector<double> traced_ms;
  EpochTrace sum;
  for (const EpochTrace& e : replay.epochs) {
    // Epoch 0 is left out of the median, as in TimedTraining.
    if (&e != &replay.epochs.front()) {
      traced_ms.push_back(static_cast<double>(e.total) / 1e6);
    }
    sum.total += e.total;
    sum.forward += e.forward;
    sum.loss += e.loss;
    sum.backward += e.backward;
    sum.step += e.step;
    sum.eval += e.eval;
    sum.sample += e.sample;
    sum.mask += e.mask;
  }
  const auto per_epoch_ms = [epochs](int64_t ns) {
    return static_cast<double>(ns) / 1e6 / epochs;
  };
  const double epoch_mean_ms = per_epoch_ms(sum.total);

  const auto stat = [&train_snapshot](const char* name) {
    return Find(train_snapshot, name);
  };
  const int64_t gemm_family_ns =
      stat("tensor.gemm").total_ns + stat("tensor.gemm_tb").total_ns +
      stat("tensor.gemm_ta").total_ns + stat("tensor.gemm_tt").total_ns;
  const int64_t spmm_ns =
      stat("sparse.spmm").total_ns + stat("sparse.spmm_masked").total_ns;
  const int64_t spmm_t_ns =
      stat("sparse.spmm_t").total_ns + stat("sparse.spmm_t_masked").total_ns;
  const double pool_items = static_cast<double>(stat("pool.hit").items +
                                                stat("pool.miss").items);
  const double masked_rows =
      static_cast<double>(stat("sparse.spmm_masked").items +
                          stat("sparse.spmm_t_masked").items);
  const double rows_skipped =
      static_cast<double>(stat("spmm.rows_skipped").items +
                          stat("spmm_t.rows_skipped").items);
  const double task_ns = static_cast<double>(stat("parallel.task").total_ns);

  // Strategy work: replayed per epoch for full batch, the traced mask
  // callback for sampled training.
  double strategy_ms = 0.0;
  double middle_rows = 0.0;
  double skipped_rows = 0.0;
  if (spec.sampling.enabled()) {
    strategy_ms = per_epoch_ms(sum.mask);
    middle_rows = static_cast<double>(replay.mask_rows);
    skipped_rows = static_cast<double>(replay.mask_skipped);
  } else {
    const StrategyReplay replayed =
        ReplayStrategy(spec, graph, spec.train.epochs);
    strategy_ms = per_epoch_ms(replayed.ns);
    middle_rows = static_cast<double>(replayed.rows);
    skipped_rows = static_cast<double>(replayed.skipped);
  }
  const double skip_frac = Ratio(skipped_rows, middle_rows);
  if (middle_rows > 0.0) {
    // Every mask draws each row independently or exactly; either way the
    // share sits within a few binomial standard deviations of rho.
    const double rho = spec.strategy.rate;
    const double sigma = std::sqrt(rho * (1.0 - rho) / middle_rows);
    if (std::fabs(skip_frac - rho) > 5.0 * sigma + 1.0 / middle_rows) {
      verdict.Fail("core.skip_frac does not read rho");
    }
  }
  const double batches = static_cast<double>(replay.batches);
  const double sampled_edges =
      static_cast<double>(replay.edges_pruned + replay.edges_fetched);

  // Serving the replayed model: untraced for the tail latency and the
  // goodput ladder, then traced at the nominal rate for the serve layer.
  const SnapshotPair pair{
      std::make_shared<const skipnode::FrozenModel>(
          skipnode::FrozenModel::Freeze(*replay.model, graph, spec.strategy)),
      prepared.initial};
  skipnode::SetParallelThreadCount(kServePoolWidth);
  const double nominal_seconds = spec.nominal_share * seconds;
  double serve_p99_us = 0.0;
  double goodput = 0.0;
  {
    skipnode::InferenceServer server(pair.first, ServingOptions());
    const NominalResult nominal = ServeNominal(
        server, pair, seed * 1000 + 1, nominal_seconds, &verdict);
    serve_p99_us = nominal.verdict.p99_us;
    goodput = MeasureGoodput(server, spec, pair, seed * 1000 + 2,
                             nominal.verdict, &verdict);
  }
  skipnode::ResetTelemetry();
  skipnode::SetTelemetryEnabled(true);
  skipnode::InferenceServer server(pair.first, ServingOptions());
  const PhaseResult phase = ServeNominal(server, pair, seed * 1000 + 1,
                                         nominal_seconds, &verdict)
                                .phase;
  server.Shutdown();
  skipnode::SetTelemetryEnabled(false);
  const skipnode::ServeStats serve_stats = server.stats();
  const skipnode::TelemetrySnapshot serve_snapshot =
      skipnode::SnapshotTelemetry();
  const skipnode::MetricStat batch_stat = Find(serve_snapshot, "serve.batch");
  std::printf("goodput %.1f req/s at a %.0f us p99 limit\n", goodput,
              kP99LimitUs);

  const double traced_p50 = Median(traced_ms);
  std::printf("traced epoch p50 %.4f ms vs untraced %.4f ms: overhead %.4f "
              "ms over %zu epochs each (epoch 0 left out)\n",
              traced_p50, untraced_p50, traced_p50 - untraced_p50,
              traced_ms.size());
  std::printf("shares of the traced epoch (%.4f ms): gemm %.3f, spmm %.3f, "
              "sample %.3f\n",
              epoch_mean_ms, Ratio(per_epoch_ms(gemm_family_ns), epoch_mean_ms),
              Ratio(per_epoch_ms(spmm_ns + spmm_t_ns), epoch_mean_ms),
              Ratio(per_epoch_ms(sum.sample), epoch_mean_ms));

  const std::vector<Metric> metrics = {
      {"train.eval_ms", per_epoch_ms(sum.eval), "ms"},
      {"train.step_ms", per_epoch_ms(sum.step), "ms"},
      {"nn.forward_ms", per_epoch_ms(sum.forward), "ms"},
      {"autograd.backward_ms", per_epoch_ms(sum.backward), "ms"},
      {"autograd.loss_ms", per_epoch_ms(sum.loss), "ms"},
      {"tensor.gemm_ms", per_epoch_ms(stat("tensor.gemm").total_ns), "ms"},
      {"tensor.gemm_tb_ms", per_epoch_ms(stat("tensor.gemm_tb").total_ns),
       "ms"},
      {"tensor.gemm_ta_ms", per_epoch_ms(stat("tensor.gemm_ta").total_ns),
       "ms"},
      {"tensor.gemm_tb_calls",
       static_cast<double>(stat("tensor.gemm_tb").count) / epochs, "count"},
      {"tensor.pool_hit_frac",
       Ratio(static_cast<double>(stat("pool.hit").items), pool_items),
       "fraction"},
      {"tensor.pool_items", pool_items / epochs, "count"},
      {"sparse.spmm_ms", per_epoch_ms(spmm_ns), "ms"},
      {"sparse.spmm_t_ms", per_epoch_ms(spmm_t_ns), "ms"},
      {"sparse.rows_skipped_frac", Ratio(rows_skipped, masked_rows),
       "fraction"},
      {"sparse.masked_rows", masked_rows / epochs, "count"},
      {"sparse.csr_build_s", prepared.csr_build_s, "s"},
      {"core.strategy_ms", strategy_ms, "ms"},
      {"core.skip_frac", skip_frac, "fraction"},
      {"core.middle_rows", middle_rows / epochs, "count"},
      {"graph.build_s", prepared.build_s, "s"},
      {"graph.sample_ms", Ratio(static_cast<double>(sum.sample) / 1e6, batches),
       "ms"},
      {"graph.pruned_edge_frac",
       Ratio(static_cast<double>(replay.edges_pruned), sampled_edges),
       "fraction"},
      {"graph.sampled_edges", Ratio(sampled_edges, batches), "count"},
      {"base.parallel_imbalance_frac",
       Ratio(static_cast<double>(stat("parallel.imbalance").total_ns), task_ns),
       "fraction"},
      {"base.parallel_task_ms", task_ns / 1e6 / epochs, "ms"},
      {"serve.freeze_s", prepared.freeze_s, "s"},
      {"serve.submit_us", phase.sent > 0 ? Median(phase.submit_us) : 0.0,
       "us"},
      {"serve.batch_ms",
       Ratio(static_cast<double>(batch_stat.total_ns) / 1e6,
             static_cast<double>(batch_stat.count)),
       "ms"},
      {"serve.requests_per_batch",
       Ratio(static_cast<double>(serve_stats.requests),
             static_cast<double>(serve_stats.batches)),
       "count"},
      {"serve.batches", static_cast<double>(serve_stats.batches), "count"},
      {"serve.queue_peak", static_cast<double>(serve_stats.queue_peak),
       "count"},
      {"serve.swap_ms", phase.swap_us.empty() ? 0.0 : Median(phase.swap_us) / 1e3,
       "ms"},
      {"serve_p99_us", serve_p99_us, "us"},
      {"serve_goodput_rps", goodput, "req/s"},
      {"serve.nominal_load_frac", Ratio(kNominalRps, goodput), "fraction"},
      {"serve.gen_lag_us",
       phase.sent > 0 ? Percentile(phase.lag_us, 99.0) : 0.0, "us"},
      {"share.gemm_frac", Ratio(per_epoch_ms(gemm_family_ns), epoch_mean_ms),
       "fraction"},
      {"share.spmm_frac",
       Ratio(per_epoch_ms(spmm_ns + spmm_t_ns), epoch_mean_ms), "fraction"},
      {"share.sample_frac", Ratio(per_epoch_ms(sum.sample), epoch_mean_ms),
       "fraction"},
      {"trace.epoch_ms_mean", epoch_mean_ms, "ms"},
      {"trace.epoch_ms_p50", traced_p50, "ms"},
      {"trace.untraced_epoch_ms_p50", untraced_p50, "ms"},
      {"trace.overhead_ms", traced_p50 - untraced_p50, "ms"},
  };
  std::printf("%s\n", ResultJson(verdict.correct, verdict.attempted,
                                  verdict.failed, metrics)
                           .c_str());
  return 0;
}

}  // namespace perfbench
