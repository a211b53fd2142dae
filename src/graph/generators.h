// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Random-graph and random-feature generators. The Erdos-Renyi generator
// reproduces the paper's Figure 4 setup; the degree-corrected planted
// partition generator plus class-conditional bag-of-words features produce
// the synthetic stand-ins for the paper's benchmark datasets (see DESIGN.md
// section 1 for the substitution rationale).

#ifndef SKIPNODE_GRAPH_GENERATORS_H_
#define SKIPNODE_GRAPH_GENERATORS_H_

#include <functional>
#include <vector>

#include "base/rng.h"
#include "sparse/graph_ops.h"
#include "tensor/matrix.h"

namespace skipnode {

// G(n, p): every unordered pair is an edge independently with probability p.
EdgeList ErdosRenyi(int num_nodes, double p, Rng& rng);

// Degree-corrected planted-partition generator.
struct PlantedPartitionConfig {
  int num_nodes = 0;
  int num_classes = 2;
  // Expected number of undirected edges to draw (duplicates collapse, so the
  // realised count is slightly lower on dense configs).
  int num_edges = 0;
  // Probability that a drawn edge connects two nodes of the same class
  // (edge homophily target).
  double homophily = 0.8;
  // Degree propensity theta_i ~ U(0,1)^{-1/power_law} capped at
  // max_propensity; power_law <= 0 disables degree correction.
  double power_law = 2.5;
  double max_propensity = 10.0;
};

struct PlantedPartitionGraph {
  EdgeList edges;
  std::vector<int> labels;
};

// Draws a graph with the requested size, class structure, homophily, and a
// heavy-ish-tailed degree distribution (the regime in which the paper's
// biased SkipNode sampler is motivated).
PlantedPartitionGraph PlantedPartition(const PlantedPartitionConfig& config,
                                       Rng& rng);

// A cumulative-weight table with a cutpoint ("guide") index, for inverse-CDF
// draws in O(1) expected probes (DESIGN §13). Bucket b of the guide holds the
// first index whose cumulative mass exceeds b * total / size(); a lookup
// jumps to its target's bucket and walks from there, so it returns exactly
// what std::upper_bound over the CDF returns, for one extra int per entry.
class CutpointTable {
 public:
  CutpointTable() = default;
  // Tabulates the running sums of non-negative `weights` (the last is the
  // total mass) and builds the guide over them in one linear pass.
  explicit CutpointTable(const std::vector<double>& weights);

  // The first index whose cumulative mass exceeds `target`, clamped to
  // size() - 1 (std::upper_bound plus the clamp). Requires size() > 0.
  int Lookup(double target) const;

  // An index drawn with probability proportional to its weight:
  // Lookup(Uniform() * total). One Rng draw.
  int Draw(Rng& rng) const { return Lookup(rng.Uniform() * cdf_.back()); }

  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
  std::vector<int> guide_;  // size() buckets, entries in [0, size()]
  double buckets_per_mass_ = 0.0;
};

// Precomputed sampling state for a DC-SBM draw (DESIGN §13): labels and
// cutpoint propensity tables, plus a forked edge-stream Rng so the accepted
// edge sequence can be replayed (once to count, once to fill a CsrBuilder)
// without ever materialising the edge list. The fork is seeded by a single
// draw from `rng`, so the caller's stream stays independent of how many
// draws the edge stream ends up making.
struct DcSbmPlan {
  std::vector<int> labels;
  std::vector<std::vector<int>> class_members;
  CutpointTable global_cdf;
  std::vector<CutpointTable> class_cdf;  // indexes into class_members[c]
  Rng edge_stream_rng;
};

DcSbmPlan PlanDcSbm(const PlantedPartitionConfig& config, Rng& rng);

// Replays the plan's edge stream, calling emit(u, v) with u < v for every
// accepted draw (u != v; duplicates are NOT filtered here — the pattern-mode
// CsrBuilder collapses them, where PlantedPartition uses a std::set).
// Deterministic: every call over the same plan emits the identical sequence.
// Each call is one `graph.edge_stream` timing (items = emitted edges).
void StreamDcSbmEdges(const PlantedPartitionConfig& config,
                      const DcSbmPlan& plan,
                      const std::function<void(int, int)>& emit);

// Class-conditional sparse binary "bag-of-words" features.
struct FeatureConfig {
  int dim = 128;
  // Active words per node.
  int words_per_node = 12;
  // Probability an active word is drawn from the node's class topic set
  // (rest are uniform noise). Higher = features more label-informative.
  double signal = 0.7;
  // Fraction of the vocabulary owned by each class topic set.
  double topic_fraction = 0.12;
  // L2-normalise rows (standard GCN preprocessing).
  bool row_normalize = true;
};

Matrix MakeClassFeatures(const std::vector<int>& labels, int num_classes,
                         const FeatureConfig& config, Rng& rng);

}  // namespace skipnode

#endif  // SKIPNODE_GRAPH_GENERATORS_H_
