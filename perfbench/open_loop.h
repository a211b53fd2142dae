// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Open-loop load for InferenceServer. A schedule (every request's node ids
// and due time, plus the model swaps) is built from the workload seed before
// any timing starts. One generator thread submits each request when it is
// due, whatever the server is doing; one collector thread waits on the
// handles in due order and stamps each completion. Latency runs from the
// due time, so a stall is charged to every request queued behind it.

#ifndef SKIPNODE_PERFBENCH_OPEN_LOOP_H_
#define SKIPNODE_PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/frozen_model.h"
#include "serve/inference_server.h"

namespace perfbench {

struct ScheduledRequest {
  int64_t due_ns = 0;  // from the phase start
  std::vector<int> node_ids;
};

struct Schedule {
  std::vector<ScheduledRequest> requests;  // ascending due_ns
  std::vector<int64_t> swap_due_ns;        // ascending, from the phase start
};

// Request sizes. Small requests ask for the node-id count of
// bench/serve_latency.cc (kBatchIds) and of skipnode_serve --batch-ids.
// Large ones ask for "some hundreds": one whole batch at the 256-row cap
// both of those use, so a large request closes its batch on rows. The
// large share is an assumption; no surface of the repository records a mix.
constexpr int kSmallRequestIds = 4;
constexpr int kLargeRequestIds = 256;
constexpr double kLargeRequestShare = 0.1;

// Arrivals at `rate_rps` for `span_ns` (at least `min_requests` requests),
// with exponential gaps: the memoryless open-loop model, an assumption.
// Sizes follow the mix above, ids uniform in [0, num_nodes). A model swap
// is due every `swap_every_ns` (0: none). The same arguments give the same
// schedule.
Schedule MakeSchedule(uint64_t seed, double rate_rps, int64_t span_ns,
                      int64_t min_requests, int num_nodes,
                      int64_t swap_every_ns);

// The two snapshots a phase alternates between. The server starts on
// `first`; each swap flips to the other one.
struct SnapshotPair {
  std::shared_ptr<const skipnode::FrozenModel> first;
  std::shared_ptr<const skipnode::FrozenModel> second;
};

struct PhaseResult {
  // Per request, in due order.
  std::vector<double> latency_us;  // due -> completion seen by the collector
  std::vector<double> lag_us;      // due -> generator calling Submit
  std::vector<double> submit_us;   // time inside Submit
  std::vector<double> swap_us;     // time inside each SwapModel call
  int64_t sent = 0;
  int64_t not_ok = 0;  // resolved with any status but kOk
  int64_t wrong = 0;   // kOk, but not bitwise a row block of a snapshot
  bool aborted = false;  // the outstanding cap stopped the generator
};

// Runs `schedule` against `server` (which must be serving pair.first) and
// verifies every kOk response against both snapshots. Stops submitting when
// more than `outstanding_cap` requests are unanswered; what was sent is
// still drained and verified. Ends with the server back on pair.first.
PhaseResult RunPhase(skipnode::InferenceServer& server,
                     const Schedule& schedule, const SnapshotPair& pair,
                     int64_t outstanding_cap);

}  // namespace perfbench

#endif  // SKIPNODE_PERFBENCH_OPEN_LOOP_H_
