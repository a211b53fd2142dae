// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// skipnode_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One benchmark run of one workload (workloads.cc). With --trace 0 it
// measures the end-to-end metrics untraced; with --trace 1 it reports the
// per-layer metrics of trace.cc instead. Human-readable detail goes to
// stdout first; the last line is the result JSON (stats.h ResultJson).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "base/telemetry.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: skipnode_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               message);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

// Parses a whole decimal number in [lo, hi].
bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < lo || value > hi) return false;
  *out = value;
  return true;
}

int RunTimed(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Verdict verdict;

  // --- Set-up, repeated; the median is setup_s. -----------------------------
  const Prepared prepared = Prepare(spec, spec.setup_reps);
  std::printf("setup: %zu reps, median %.4f s (build %.4f s, freeze %.4f s)\n",
              prepared.setup_s.size(), Median(prepared.setup_s),
              prepared.build_s, prepared.freeze_s);

  // --- Training: a fixed number of whole runs (at least two, so their
  // digests can disagree). ------------------------------------------------
  std::vector<double> epoch_ms;
  std::unique_ptr<TrainOutcome> first;
  const int64_t runs = TrainRuns(spec, seconds);
  for (int64_t r = 0; r < runs; ++r) {
    TrainOutcome outcome = TimedTraining(spec, prepared);
    epoch_ms.insert(epoch_ms.end(), outcome.epoch_ms.begin(),
                    outcome.epoch_ms.end());
    if (!outcome.finite ||
        (first != nullptr && outcome.digest != first->digest)) {
      ++verdict.failed;
      verdict.Fail("a training run was non-finite or its digest differed");
    }
    if (first == nullptr) {
      first = std::make_unique<TrainOutcome>(std::move(outcome));
    }
  }
  verdict.attempted += runs;
  std::printf("training: %lld runs x %d epochs, digest %016llx, loss %.6f, "
              "test acc %.4f\n",
              static_cast<long long>(runs), spec.train.epochs,
              static_cast<unsigned long long>(first->digest),
              first->result.final_train_loss, first->result.test_accuracy);
  if (!(first->result.test_accuracy >= spec.accuracy_floor)) {
    verdict.Fail("test accuracy below the workload floor");
  }
  const Tail epoch_tail = TailPercentile(epoch_ms);
  if (!epoch_tail.ok) verdict.Fail("too few epochs for a tail percentile");
  std::printf("epochs: %zu samples (epoch 0 of each run left out), p50 %.4f ms, tail p%.2f %.4f ms (%lld "
              "beyond)\n",
              epoch_ms.size(), Median(epoch_ms), epoch_tail.percentile,
              epoch_tail.value, static_cast<long long>(epoch_tail.beyond));
  // Peak RSS of set-up and training: read before serving, whose request
  // bookkeeping belongs to the load generator, not to the program.
  const double peak_rss_mb = PeakRssMb();

  // --- Serving the trained model, swapping to the initial one and back. -----
  const SnapshotPair pair{
      std::make_shared<const skipnode::FrozenModel>(
          skipnode::FrozenModel::Freeze(*first->model, *prepared.graph,
                                        spec.strategy)),
      prepared.initial};
  skipnode::SetParallelThreadCount(kServePoolWidth);
  skipnode::InferenceServer server(pair.first, ServingOptions());
  const NominalResult nominal =
      ServeNominal(server, pair, seed * 1000 + 1,
                   spec.nominal_share * seconds, &verdict);
  server.Shutdown();
  std::printf("failed_frac %lld/%lld = %.6f\n",
              static_cast<long long>(verdict.failed),
              static_cast<long long>(verdict.attempted),
              static_cast<double>(verdict.failed) /
                  static_cast<double>(verdict.attempted));

  const std::vector<Metric> metrics = {
      {"setup_s", Median(prepared.setup_s), "s"},
      {"epoch_ms_p50", Median(epoch_ms), "ms"},
      {"epoch_ms_tail", epoch_tail.value, "ms"},
      {"final_train_loss", first->result.final_train_loss, "loss"},
      {"test_accuracy", first->result.test_accuracy, "fraction"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"serve_p50_us", nominal.p50_us, "us"},
  };
  std::printf("%s\n", ResultJson(verdict.correct, verdict.attempted,
                                  verdict.failed, metrics)
                           .c_str());
  return 0;
}

int Main(int argc, char** argv) {
  std::string workload;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ok = ParseInt(value, 0, (1LL << 53), &seed);
    } else if (flag == "--seconds") {
      ok = ParseInt(value, 1, 3600, &seconds);
    } else if (flag == "--trace") {
      ok = ParseInt(value, 0, 1, &trace);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return Usage(("bad value for " + flag).c_str());
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) return Usage("unknown or missing --workload");
  if (seed < 0 || seconds < 0 || trace < 0) {
    return Usage("--seed, --seconds and --trace are required");
  }
  skipnode::SetParallelThreadCount(kPoolWidth);
  skipnode::SetTelemetryEnabled(false);
  std::printf("workload %s, seed %lld, %lld s, pool width %d, trace %lld\n",
              spec->name.c_str(), seed, seconds, kPoolWidth, trace);
  const uint64_t s = static_cast<uint64_t>(seed);
  const double budget = static_cast<double>(seconds);
  return trace == 1 ? RunTraced(*spec, s, budget) : RunTimed(*spec, s, budget);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
