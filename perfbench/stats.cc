// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "base/check.h"
#include "base/json.h"

namespace perfbench {

double Median(std::vector<double> values) {
  SKIPNODE_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  SKIPNODE_CHECK(!values.empty());
  SKIPNODE_CHECK(p > 0.0 && p <= 100.0);
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // Nearest rank, guarded against p * n landing a hair above an integer.
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(values.size()));
  return values[static_cast<size_t>(rank - 1)];
}

double WindowedPercentile(const std::vector<double>& values, size_t window,
                          double p) {
  SKIPNODE_CHECK(!values.empty() && window >= 1);
  if (values.size() < window) return Percentile(values, p);
  std::vector<double> per_window;
  for (size_t begin = 0; begin + window <= values.size(); begin += window) {
    per_window.push_back(Percentile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(begin),
                            values.begin() +
                                static_cast<std::ptrdiff_t>(begin + window)),
        p));
  }
  return Median(per_window);
}

Tail TailPercentile(std::vector<double> values, int64_t min_beyond) {
  SKIPNODE_CHECK(min_beyond >= 0);
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  if (tail.samples <= min_beyond) return tail;
  std::sort(values.begin(), values.end());
  const int64_t index = tail.samples - 1 - min_beyond;
  tail.ok = true;
  tail.value = values[static_cast<size_t>(index)];
  tail.beyond = min_beyond;
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(tail.samples);
  return tail;
}

bool BacklogGrowing(const std::vector<double>& latency_us, double limit_us) {
  const size_t n = latency_us.size();
  if (n < 8) return false;
  const size_t quarter = n / 4;
  const std::vector<double> first(latency_us.begin(),
                                  latency_us.begin() + quarter);
  const std::vector<double> last(latency_us.end() - quarter, latency_us.end());
  return Median(last) > Median(first) + 0.5 * limit_us;
}

bool RungPasses(const RungResult& rung, double limit_us) {
  return rung.sent > 0 && rung.failed == 0 && !rung.generator_behind &&
         !rung.aborted && !rung.backlog_growing && rung.p99_us <= limit_us;
}

std::vector<double> LadderRates(double lowest, double ratio, int rungs) {
  SKIPNODE_CHECK(lowest > 0.0 && ratio > 1.0 && rungs >= 1);
  std::vector<double> rates(static_cast<size_t>(rungs));
  for (int k = 0; k < rungs; ++k) {
    rates[static_cast<size_t>(k)] = lowest * std::pow(ratio, k);
  }
  return rates;
}

int HighestPassingRung(int num_rungs, const std::function<bool(int)>& passes) {
  SKIPNODE_CHECK(num_rungs >= 1);
  if (!passes(0)) return -1;
  // Invariant: rung `lo` passed; every rung at or above `hi` is taken to
  // fail (hi == num_rungs is the virtual rung past the top).
  int lo = 0;
  int hi = num_rungs;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  skipnode::JsonObject values;
  for (const Metric& m : metrics) {
    skipnode::JsonObject metric;
    metric.Add("value", m.value).Add("unit", m.unit);
    values.AddRaw(m.name, metric.Finish());
  }
  skipnode::JsonObject out;
  out.Add("correct", correct)
      .Add("attempted", attempted)
      .Add("failed", failed)
      .AddRaw("metrics", values.Finish());
  return out.Finish();
}

}  // namespace perfbench
