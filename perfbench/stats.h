// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Order statistics and the goodput-ladder rules the benchmark reports with.
// Pure functions over plain vectors, so perfbench_stats_test pins every rule
// without running a workload.

#ifndef SKIPNODE_PERFBENCH_STATS_H_
#define SKIPNODE_PERFBENCH_STATS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

// Median of `values` (mean of the two middle values for an even count).
// `values` must be non-empty.
double Median(std::vector<double> values);

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. `values` non-empty, p in (0, 100].
double Percentile(std::vector<double> values, double p);

// Median over consecutive windows of `window` samples of each window's
// nearest-rank p-th percentile. `values` is in arrival order; a trailing
// partial window is dropped unless it is the only one. A host stall of a
// few milliseconds lands in one window and moves this median far less than
// it moves the percentile of the whole sample.
double WindowedPercentile(const std::vector<double>& values, size_t window,
                          double p);

// The tail a sample supports: the highest percentile that still has at
// least `min_beyond` samples strictly above it, i.e. the (min_beyond+1)-th
// largest value. `ok` is false when there are not more than `min_beyond`
// samples.
struct Tail {
  bool ok = false;
  double value = 0.0;
  double percentile = 0.0;  // nearest-rank percentile of `value`
  int64_t samples = 0;
  int64_t beyond = 0;  // samples strictly above `value`'s rank
};
Tail TailPercentile(std::vector<double> values, int64_t min_beyond = 10);

// Backlog rule for one ladder rung. `latency_us` holds each request's
// latency (due -> completion) in due order. The backlog is growing when the
// median latency of the last quarter of the rung exceeds that of the first
// quarter by more than half the latency limit: a served rate keeps latency
// flat over the rung, an unserved one makes it climb. Fewer than 8 samples
// cannot show a trend and read as not growing.
bool BacklogGrowing(const std::vector<double>& latency_us, double limit_us);

// What one ladder rung measured.
struct RungResult {
  int64_t sent = 0;
  int64_t failed = 0;        // not-ok or wrong-byte responses
  double p99_us = 0.0;  // windowed p99 latency (WindowedPercentile)
  bool generator_behind = false;  // the schedule could not be kept
  bool aborted = false;           // stopped early on an outstanding cap
  bool backlog_growing = false;
};

// A rung passes when every request succeeded, the generator kept the
// schedule, the rung ran to the end without a growing backlog, and p99
// latency met the limit.
bool RungPasses(const RungResult& rung, double limit_us);

// Offered rates of the ladder: lowest * ratio^k for k in [0, rungs).
std::vector<double> LadderRates(double lowest, double ratio, int rungs);

// Highest rung index in [0, num_rungs) for which `passes` holds, found by
// bisection under the assumption that passing is monotone in the rate.
// Returns -1 when rung 0 fails. Probes at most ceil(log2(num_rungs)) + 1
// rungs; `passes` is called once per probed index.
int HighestPassingRung(int num_rungs, const std::function<bool(int)>& passes);

// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{
// name: {"value": v, "unit": u}, ...}}, written by base/json (17
// significant digits; a non-finite value prints as null).
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // SKIPNODE_PERFBENCH_STATS_H_
