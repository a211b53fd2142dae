// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "open_loop.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "base/check.h"
#include "base/rng.h"
#include "base/telemetry.h"

namespace perfbench {
namespace {

using skipnode::MonotonicNanos;

// A sleeping thread can wake milliseconds late on a virtualised host, so
// the generator never sleeps: it spins to each due time. The loop has no
// pause hint: under a hypervisor, pause loops trigger pause-loop exits that
// deschedule the spinning vCPU.
void SpinUntil(int64_t target_ns) {
  while (MonotonicNanos() < target_ns) {
  }
}

// `published` holds the number of requests submitted so far, plus this bit
// once the generator has stopped. The collector blocks on it (atomic wait)
// until the request it stamps next has been sent, so it is back inside that
// request's handle wait as soon as Submit returns.
constexpr int64_t kGeneratorDone = int64_t{1} << 62;

bool SameBits(const skipnode::Matrix& a, const skipnode::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

}  // namespace

Schedule MakeSchedule(uint64_t seed, double rate_rps, int64_t span_ns,
                      int64_t min_requests, int num_nodes,
                      int64_t swap_every_ns) {
  SKIPNODE_CHECK(rate_rps > 0.0 && span_ns > 0 && num_nodes >= 1);
  skipnode::Rng rng(seed);
  Schedule schedule;
  const double mean_gap_ns = 1e9 / rate_rps;
  double due = 0.0;
  while (due < static_cast<double>(span_ns) ||
         static_cast<int64_t>(schedule.requests.size()) < min_requests) {
    due += -std::log(1.0 - rng.Uniform()) * mean_gap_ns;
    ScheduledRequest request;
    request.due_ns = static_cast<int64_t>(due);
    const bool large = rng.Uniform() < kLargeRequestShare;
    request.node_ids.resize(
        static_cast<size_t>(large ? kLargeRequestIds : kSmallRequestIds));
    for (int& id : request.node_ids) {
      id = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(num_nodes)));
    }
    schedule.requests.push_back(std::move(request));
  }
  if (swap_every_ns > 0) {
    const int64_t end = schedule.requests.back().due_ns;
    for (int64_t t = swap_every_ns; t < end; t += swap_every_ns) {
      schedule.swap_due_ns.push_back(t);
    }
  }
  return schedule;
}

PhaseResult RunPhase(skipnode::InferenceServer& server,
                     const Schedule& schedule, const SnapshotPair& pair,
                     int64_t outstanding_cap) {
  const std::vector<ScheduledRequest>& requests = schedule.requests;
  const size_t n = requests.size();
  std::vector<skipnode::PredictionHandle> handles(n);
  std::vector<int64_t> completion_ns(n, 0);
  std::vector<skipnode::ServeStatus> statuses(n, skipnode::ServeStatus::kInvalid);
  std::atomic<int64_t> published{0};
  std::atomic<int64_t> completed{0};
  PhaseResult result;
  result.lag_us.reserve(n);
  result.submit_us.reserve(n);

  // A short lead lets both threads reach their first wait before anything
  // is due.
  const int64_t start_ns = MonotonicNanos() + 2'000'000;

  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      int64_t state = published.load(std::memory_order_acquire);
      while ((state & ~kGeneratorDone) <= static_cast<int64_t>(i) &&
             (state & kGeneratorDone) == 0) {
        published.wait(state, std::memory_order_acquire);
        state = published.load(std::memory_order_acquire);
      }
      if ((state & ~kGeneratorDone) <= static_cast<int64_t>(i)) break;
      statuses[i] = handles[i].status();
      completion_ns[i] = MonotonicNanos();
      completed.store(static_cast<int64_t>(i) + 1, std::memory_order_release);
    }
  });

  size_t next_swap = 0;
  bool on_first = true;
  const auto swap = [&] {
    const int64_t t0 = MonotonicNanos();
    server.SwapModel(on_first ? pair.second : pair.first);
    result.swap_us.push_back(static_cast<double>(MonotonicNanos() - t0) / 1e3);
    on_first = !on_first;
  };
  for (size_t i = 0; i < n; ++i) {
    const int64_t due_ns = start_ns + requests[i].due_ns;
    while (next_swap < schedule.swap_due_ns.size() &&
           schedule.swap_due_ns[next_swap] <= requests[i].due_ns) {
      SpinUntil(start_ns + schedule.swap_due_ns[next_swap]);
      swap();
      ++next_swap;
    }
    SpinUntil(due_ns);
    const int64_t t0 = MonotonicNanos();
    handles[i] = server.Submit(requests[i].node_ids);
    const int64_t t1 = MonotonicNanos();
    result.lag_us.push_back(static_cast<double>(t0 - due_ns) / 1e3);
    result.submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    published.store(static_cast<int64_t>(i) + 1, std::memory_order_release);
    published.notify_one();
    if (static_cast<int64_t>(i) + 1 -
            completed.load(std::memory_order_acquire) >
        outstanding_cap) {
      result.aborted = true;
      break;
    }
  }
  published.fetch_or(kGeneratorDone, std::memory_order_release);
  published.notify_one();
  collector.join();
  if (!on_first) server.SwapModel(pair.first);

  result.sent = published.load() & ~kGeneratorDone;
  result.latency_us.resize(static_cast<size_t>(result.sent));
  for (size_t i = 0; i < static_cast<size_t>(result.sent); ++i) {
    result.latency_us[i] =
        static_cast<double>(completion_ns[i] - start_ns - requests[i].due_ns) /
        1e3;
    if (statuses[i] != skipnode::ServeStatus::kOk) {
      ++result.not_ok;
      continue;
    }
    const skipnode::Matrix& got = handles[i].logits();
    if (!SameBits(got, pair.first->Logits(requests[i].node_ids)) &&
        !SameBits(got, pair.second->Logits(requests[i].node_ids))) {
      ++result.wrong;
    }
  }
  return result;
}

}  // namespace perfbench
