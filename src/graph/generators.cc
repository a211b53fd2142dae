// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>

#include "base/check.h"
#include "base/telemetry.h"

namespace skipnode {

EdgeList ErdosRenyi(int num_nodes, double p, Rng& rng) {
  SKIPNODE_CHECK(p >= 0.0 && p <= 1.0);
  EdgeList edges;
  for (int u = 0; u < num_nodes; ++u) {
    for (int v = u + 1; v < num_nodes; ++v) {
      if (rng.Bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return edges;
}

CutpointTable::CutpointTable(const std::vector<double>& weights)
    : cdf_(weights.size()), guide_(weights.size()) {
  std::partial_sum(weights.begin(), weights.end(), cdf_.begin());
  const int n = size();
  if (n == 0) return;
  const double total = cdf_.back();
  buckets_per_mass_ = total > 0.0 ? n / total : 0.0;
  for (int b = 0, i = 0; b < n; ++b) {
    while (i < n && cdf_[i] <= b * (total / n)) ++i;
    guide_[b] = i;
  }
}

int CutpointTable::Lookup(double target) const {
  const int n = size();
  // The bucket maths may land one bucket off either way in floating point;
  // the two walks below correct it, so only the probe count depends on it.
  const double scaled = target * buckets_per_mass_;
  int i = guide_[scaled > 0.0 ? static_cast<int>(std::min(scaled, n - 1.0))
                              : 0];
  while (i > 0 && cdf_[i - 1] > target) --i;
  // Most draws step forward zero or one entries. Taking that first step
  // without a branch leaves only the rare longer walks to mispredict.
  if (i < n) i += cdf_[i] <= target;
  while (i < n && cdf_[i] <= target) ++i;
  return std::min(i, n - 1);
}

namespace {

// Labels, degree propensities and cutpoint tables, in the Rng draw order
// both generators share: one shuffle for the balanced labels, then one
// propensity per node. Leaves edge_stream_rng unforked.
DcSbmPlan PlanTables(const PlantedPartitionConfig& config, Rng& rng) {
  SKIPNODE_CHECK(config.num_nodes > 0);
  SKIPNODE_CHECK(config.num_classes > 0);
  SKIPNODE_CHECK(config.homophily >= 0.0 && config.homophily <= 1.0);
  const int n = config.num_nodes;
  const int k = config.num_classes;

  DcSbmPlan plan;
  // Balanced classes, randomly assigned.
  plan.labels.resize(n);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  for (int i = 0; i < n; ++i) plan.labels[order[i]] = i % k;

  // Degree propensities.
  std::vector<double> theta(n, 1.0);
  if (config.power_law > 0.0) {
    for (int i = 0; i < n; ++i) {
      double u = rng.Uniform();
      while (u <= 1e-12) u = rng.Uniform();
      theta[i] = std::min(std::pow(u, -1.0 / config.power_law),
                          config.max_propensity);
    }
  }

  // Cumulative propensity tables: per class, then global.
  plan.class_members.resize(k);
  plan.class_cdf.reserve(k);  // regrowth would strew freed heap blocks
  for (int i = 0; i < n; ++i) {
    plan.class_members[plan.labels[i]].push_back(i);
  }
  for (const std::vector<int>& members : plan.class_members) {
    std::vector<double> weights;
    weights.reserve(members.size());
    for (const int i : members) weights.push_back(theta[i]);
    plan.class_cdf.emplace_back(weights);
  }
  plan.global_cdf = CutpointTable(theta);
  return plan;
}

// Draws edges with `rng` until accept(u, v) has taken config.num_edges pairs
// or the attempt budget runs out, and returns the number taken: u globally
// by propensity; v within u's class with probability `homophily`, otherwise
// globally, resampling (not skipping) same-class hits so the realised
// homophily matches the target instead of drifting upward. accept sees
// u < v and returns whether the pair counts.
template <typename Accept>
int64_t DrawDcSbmEdges(const PlantedPartitionConfig& config,
                       const DcSbmPlan& plan, Rng& rng, Accept&& accept) {
  const int k = config.num_classes;
  const int64_t max_attempts =
      static_cast<int64_t>(config.num_edges) * 30 + 1000;
  int64_t accepted = 0;
  for (int64_t attempts = 0;
       accepted < config.num_edges && attempts < max_attempts; ++attempts) {
    const int u = plan.global_cdf.Draw(rng);
    int v;
    if (rng.Bernoulli(config.homophily)) {
      const int c = plan.labels[u];
      v = plan.class_members[c][plan.class_cdf[c].Draw(rng)];
    } else {
      v = -1;
      for (int retry = 0; retry < 64; ++retry) {
        const int candidate = plan.global_cdf.Draw(rng);
        if (k == 1 || plan.labels[candidate] != plan.labels[u]) {
          v = candidate;
          break;
        }
      }
      if (v < 0) continue;
    }
    if (u == v) continue;
    if (accept(std::min(u, v), std::max(u, v))) ++accepted;
  }
  return accepted;
}

}  // namespace

PlantedPartitionGraph PlantedPartition(const PlantedPartitionConfig& config,
                                       Rng& rng) {
  DcSbmPlan plan = PlanTables(config, rng);
  PlantedPartitionGraph graph;
  std::set<std::pair<int, int>> seen;
  graph.edges.reserve(config.num_edges);
  DrawDcSbmEdges(config, plan, rng, [&](int u, int v) {
    if (!seen.insert({u, v}).second) return false;
    graph.edges.emplace_back(u, v);
    return true;
  });
  graph.labels = std::move(plan.labels);
  return graph;
}

DcSbmPlan PlanDcSbm(const PlantedPartitionConfig& config, Rng& rng) {
  DcSbmPlan plan = PlanTables(config, rng);
  plan.edge_stream_rng = Rng(rng.Next());
  return plan;
}

void StreamDcSbmEdges(const PlantedPartitionConfig& config,
                      const DcSbmPlan& plan,
                      const std::function<void(int, int)>& emit) {
  const bool timed = TelemetryEnabled();
  const int64_t start_ns = timed ? MonotonicNanos() : 0;
  // Copying the plan's Rng restarts the stream, so every call replays the
  // identical draw sequence — the property both builder passes rely on.
  Rng rng = plan.edge_stream_rng;
  const int64_t emitted = DrawDcSbmEdges(config, plan, rng, [&](int u, int v) {
    emit(u, v);
    return true;
  });
  if (timed) {
    RecordTiming("graph.edge_stream", MonotonicNanos() - start_ns, emitted);
  }
}

Matrix MakeClassFeatures(const std::vector<int>& labels, int num_classes,
                         const FeatureConfig& config, Rng& rng) {
  const int n = static_cast<int>(labels.size());
  SKIPNODE_CHECK(config.dim > 0);
  SKIPNODE_CHECK(config.words_per_node > 0);
  SKIPNODE_CHECK(config.signal >= 0.0 && config.signal <= 1.0);

  // Each class owns a random topic subset of the vocabulary.
  const int topic_size = std::max(
      2, static_cast<int>(config.topic_fraction * config.dim));
  std::vector<std::vector<int>> topics(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    topics[c] = rng.SampleWithoutReplacement(config.dim, topic_size);
  }

  Matrix features(n, config.dim);
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& topic = topics[labels[i]];
    for (int w = 0; w < config.words_per_node; ++w) {
      int word;
      if (rng.Bernoulli(config.signal)) {
        word = topic[rng.UniformInt(topic.size())];
      } else {
        word = static_cast<int>(rng.UniformInt(config.dim));
      }
      features(i, word) = 1.0f;
    }
  }
  if (config.row_normalize) {
    for (int i = 0; i < n; ++i) {
      float* row = features.row(i);
      double total = 0.0;
      for (int j = 0; j < config.dim; ++j) total += row[j] * row[j];
      if (total > 0.0) {
        const float inv = static_cast<float>(1.0 / std::sqrt(total));
        for (int j = 0; j < config.dim; ++j) row[j] *= inv;
      }
    }
  }
  return features;
}

}  // namespace skipnode
