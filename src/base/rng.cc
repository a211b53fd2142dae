// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "base/check.h"

namespace skipnode {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  // Seed expansion via SplitMix64 as recommended by the xoshiro authors; it
  // guarantees a non-zero state for any seed.
  uint64_t s = seed;
  for (uint64_t& word : state_) word = SplitMix64(s);
}

float Rng::UniformFloat(float lo, float hi) {
  return lo + static_cast<float>(Uniform()) * (hi - lo);
}

uint64_t Rng::UniformInt(uint64_t n) {
  SKIPNODE_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = ~0ULL - ~0ULL % n;
  uint64_t value = Next();
  while (value >= limit) value = Next();
  return value % n;
}

double Rng::Normal() {
  // Box-Muller; discard the second variate for simplicity.
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  SKIPNODE_CHECK(k >= 0 && k <= n);
  std::vector<int> pool(n);
  for (int i = 0; i < n; ++i) pool[i] = i;
  for (int i = 0; i < k; ++i) {
    const int j = i + static_cast<int>(UniformInt(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

std::vector<int> Rng::WeightedSampleWithoutReplacement(
    const std::vector<double>& weights, int k) {
  // Efraimidis-Spirakis: draw key_i = log(u_i) / w_i and keep the k largest.
  // Equivalent to sequential weighted sampling without replacement but runs
  // in O(n log n) instead of O(n * k), which matters because SkipNode's
  // biased sampler runs once per layer per training step.
  const int n = static_cast<int>(weights.size());
  SKIPNODE_CHECK(k >= 0 && k <= n);
  std::vector<std::pair<double, int>> keyed(n);
  for (int i = 0; i < n; ++i) {
    SKIPNODE_CHECK(weights[i] >= 0.0);
    // Zero-weight items get an effectively -inf key so they are only chosen
    // once every positive-weight item has been taken.
    const double w = weights[i] > 0.0 ? weights[i] : 1e-12;
    double u = Uniform();
    while (u <= 1e-300) u = Uniform();
    keyed[i] = {std::log(u) / w, i};
  }
  std::partial_sort(keyed.begin(), keyed.begin() + k, keyed.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<int> result(k);
  for (int i = 0; i < k; ++i) result[i] = keyed[i].second;
  return result;
}

void Rng::Shuffle(std::vector<int>& values) {
  const int n = static_cast<int>(values.size());
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(UniformInt(i + 1));
    std::swap(values[i], values[j]);
  }
}

}  // namespace skipnode
