// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "bench_common.h"

#include <cstdlib>
#include <cstring>

#include "base/check.h"
#include "base/json.h"
#include "base/parallel.h"
#include "base/simd.h"
#include "base/telemetry.h"

namespace skipnode::bench {
namespace {

bool EnvSet(const char* name) { return std::getenv(name) != nullptr; }

// The bench name passed to Begin and the open JSONL sink (if any); plain
// globals — bench binaries are single-threaded at the harness level.
std::string g_bench_name = "bench";
std::FILE* g_json_sink = nullptr;

void CloseJsonSink() {
  if (g_json_sink != nullptr) {
    std::fclose(g_json_sink);
    g_json_sink = nullptr;
  }
}

std::string EncodeNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

BenchConfig BenchConfig::FromEnv() {
  BenchConfig config;
  if (const char* env = std::getenv("SKIPNODE_BENCH_SCALE")) {
    if (std::strcmp(env, "paper") == 0) {
      config.scale = Scale::kPaper;
    } else if (std::strcmp(env, "smoke") == 0) {
      config.scale = Scale::kSmoke;
    } else {
      SKIPNODE_CHECK_MSG(
          false, "SKIPNODE_BENCH_SCALE must be \"smoke\" or \"paper\", got "
          "\"%s\"", env);
    }
  }
  config.simd = simd::ParseEnabledEnv(std::getenv("SKIPNODE_SIMD"));
  config.guard = EnvSet("SKIPNODE_BENCH_GUARD");
  config.trace = EnvSet("SKIPNODE_BENCH_TRACE");
  if (const char* env = std::getenv("SKIPNODE_BENCH_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) config.threads = parsed;
  }
  if (const char* env = std::getenv("SKIPNODE_BENCH_JSON")) {
    config.json_path = env;
  }
  return config;
}

const BenchConfig& Config() {
  static const BenchConfig config = BenchConfig::FromEnv();
  return config;
}

void Begin(const char* name) {
  const BenchConfig& config = Config();
  g_bench_name = name;
  if (config.threads >= 1) SetParallelThreadCount(config.threads);
  simd::SetEnabled(config.simd);
  if (!config.json_path.empty() && g_json_sink == nullptr) {
    g_json_sink = std::fopen(config.json_path.c_str(), "a");
    SKIPNODE_CHECK(g_json_sink != nullptr);
    std::atexit(CloseJsonSink);
    // Per-cell snapshots need the registry live; the timers stay off the
    // numeric path, so the reported numbers do not move (DESIGN §9).
    SetTelemetryEnabled(true);
  }
  std::printf("==== %s ====\n", name);
  std::printf("scale: %s%s\n", PaperScale() ? "paper" : "smoke",
              PaperScale()
                  ? ""
                  : " (set SKIPNODE_BENCH_SCALE=paper for the full sweep)");
  std::printf("simd:  %s\n", config.simd ? "on" : "off");
  if (g_json_sink != nullptr) {
    std::printf("jsonl: %s\n", config.json_path.c_str());
  }
  std::printf("\n");
}

std::FILE* JsonSink() { return g_json_sink; }

CellRecorder::CellRecorder(std::string cell) : cell_(std::move(cell)) {
  if (g_json_sink == nullptr) return;
  if (TelemetryEnabled()) ResetTelemetry();
  start_ns_ = MonotonicNanos();
}

CellRecorder& CellRecorder::Param(const std::string& key,
                                  const std::string& value) {
  params_.emplace_back(key, "\"" + JsonObject::Escape(value) + "\"");
  return *this;
}

CellRecorder& CellRecorder::Param(const std::string& key, const char* value) {
  return Param(key, std::string(value));
}

CellRecorder& CellRecorder::Param(const std::string& key, double value) {
  params_.emplace_back(key, EncodeNumber(value));
  return *this;
}

CellRecorder& CellRecorder::Param(const std::string& key, int64_t value) {
  params_.emplace_back(key, std::to_string(value));
  return *this;
}

CellRecorder& CellRecorder::Param(const std::string& key, int value) {
  return Param(key, static_cast<int64_t>(value));
}

void CellRecorder::Record(const std::string& metric, double value) {
  if (g_json_sink == nullptr) return;
  JsonObject params;
  for (const auto& [key, raw] : params_) params.AddRaw(key, raw);
  JsonObject record;
  record.Add("bench", g_bench_name)
      .Add("cell", cell_)
      .Add("scale", PaperScale() ? "paper" : "smoke")
      .Add("threads", ParallelThreadCount())
      .AddRaw("params", params.Finish())
      .Add("metric", metric)
      .Add("value", value)
      .Add("elapsed_ns", MonotonicNanos() - start_ns_);
  if (TelemetryEnabled()) {
    record.AddRaw("telemetry", SnapshotTelemetry().ToJson());
  }
  std::fputs(record.Finish().c_str(), g_json_sink);
  std::fputc('\n', g_json_sink);
  std::fflush(g_json_sink);
}

double RunCell(const std::string& backbone, const Graph& graph,
               const Split& split, const StrategyConfig& strategy,
               int num_layers, int hidden, int epochs, uint64_t seed,
               float dropout, float weight_decay) {
  CellRecorder recorder(backbone);
  recorder.Param("backbone", backbone)
      .Param("strategy", StrategyName(strategy.kind))
      .Param("rate", static_cast<double>(strategy.rate))
      .Param("layers", num_layers)
      .Param("hidden", hidden)
      .Param("epochs", epochs)
      .Param("seed", static_cast<int64_t>(seed));

  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = hidden;
  config.out_dim = graph.num_classes();
  config.num_layers = num_layers;
  config.dropout = dropout;

  // Tracing observes only (it never touches the Rng) and the guardrail scans
  // are pure reads with no fault planted, so neither knob moves a reported
  // number (guarded cells stay bitwise identical to unguarded ones).
  TrainRun run;
  run.options.epochs = epochs;
  run.options.eval_every = 2;
  run.options.weight_decay = weight_decay;
  run.options.seed = seed;
  if (Config().trace) {
    run.on_epoch = [](int epoch, double loss, double val, double test) {
      std::printf("    epoch %4d | loss %.4f | val %.2f%% | test %.2f%%\n",
                  epoch, loss, 100.0 * val, 100.0 * test);
    };
  }
  run.health.enabled = Config().guard;

  Rng rng(seed * 7919 + 13);
  auto model = MakeModel(backbone, config, rng);
  const double accuracy =
      100.0 *
      TrainNodeClassifier(*model, graph, split, strategy, run).test_accuracy;
  recorder.Record("test_accuracy", accuracy);
  return accuracy;
}

double RunCellTuned(const std::string& backbone, const Graph& graph,
                    const Split& split, StrategyKind kind,
                    const std::vector<float>& rates, int num_layers,
                    int hidden, int epochs, uint64_t seed) {
  CellRecorder recorder(backbone);
  double best_val = -1.0, best_test = 0.0;
  float best_rate = 0.0f;
  for (const float rate : rates) {
    StrategyConfig strategy;
    strategy.kind = kind;
    strategy.rate = rate;

    ModelConfig config;
    config.in_dim = graph.feature_dim();
    config.hidden_dim = hidden;
    config.out_dim = graph.num_classes();
    config.num_layers = num_layers;

    TrainRun run;
    run.options.epochs = epochs;
    run.options.eval_every = 2;
    run.options.seed = seed;
    run.health.enabled = Config().guard;

    Rng rng(seed * 7919 + 13);
    auto model = MakeModel(backbone, config, rng);
    const TrainResult result =
        TrainNodeClassifier(*model, graph, split, strategy, run);
    if (result.best_val_accuracy > best_val) {
      best_val = result.best_val_accuracy;
      best_test = result.test_accuracy;
      best_rate = rate;
    }
  }
  recorder.Param("backbone", backbone)
      .Param("strategy", StrategyName(kind))
      .Param("best_rate", static_cast<double>(best_rate))
      .Param("layers", num_layers)
      .Param("hidden", hidden)
      .Param("epochs", epochs)
      .Param("seed", static_cast<int64_t>(seed));
  recorder.Record("test_accuracy", 100.0 * best_test);
  return 100.0 * best_test;
}

}  // namespace skipnode::bench
