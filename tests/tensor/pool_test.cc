// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tensor/pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/aligned.h"
#include "base/rng.h"
#include "base/telemetry.h"

// Counts every global heap allocation so the steady-state test can assert
// that recycling allocates nothing.
namespace {
std::atomic<int64_t> g_heap_allocations{0};

void* CountedAlloc(std::size_t bytes, std::size_t alignment) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(bytes == 0 ? 1 : bytes);
  } else if (posix_memalign(&p, alignment, bytes == 0 ? 1 : bytes) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t bytes) {
  return CountedAlloc(bytes, alignof(std::max_align_t));
}
void* operator new(std::size_t bytes, std::align_val_t alignment) {
  return CountedAlloc(bytes, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace skipnode {
namespace {

constexpr int64_t kFloat = static_cast<int64_t>(sizeof(float));

TEST(MatrixPoolTest, AcquireReturnsZeroedMatrixOfRequestedShape) {
  MatrixPool pool;
  Matrix m = pool.Acquire(3, 5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 5);
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(MatrixPoolTest, ReleaseThenAcquireRecyclesAndRezeroes) {
  MatrixPool pool;
  Matrix m = pool.Acquire(4, 4);
  m(0, 0) = 7.0f;
  m(3, 3) = -2.5f;
  const float* storage = m.data();
  pool.Release(std::move(m));
  EXPECT_EQ(pool.buffers_retained(), 1);

  Matrix recycled = pool.Acquire(4, 4);
  EXPECT_EQ(recycled.data(), storage);
  EXPECT_EQ(pool.buffers_retained(), 0);
  // The recycled buffer must be indistinguishable from a fresh Matrix(4, 4).
  for (int64_t i = 0; i < recycled.size(); ++i) {
    EXPECT_EQ(recycled.data()[i], 0.0f);
  }
}

// A recycled buffer serving a smaller request is zeroed over its size()
// prefix, 64-byte aligned and bitwise equal to a fresh Matrix of the shape,
// whatever the previous tenant left in it.
TEST(MatrixPoolTest, RecycledBufferIsBitwiseAFreshMatrix) {
  MatrixPool pool;
  Matrix dirty = pool.Acquire(9, 8);
  for (int64_t i = 0; i < dirty.size(); ++i) {
    dirty.data()[i] = i % 2 == 0 ? std::numeric_limits<float>::quiet_NaN()
                                 : -0.0f;
  }
  const float* storage = dirty.data();
  pool.Release(std::move(dirty));

  // 64 elements served from the 72-element buffer (exactly the slack).
  Matrix recycled = pool.Acquire(8, 8);
  ASSERT_EQ(recycled.data(), storage);
  EXPECT_EQ(recycled.rows(), 8);
  EXPECT_EQ(recycled.cols(), 8);
  EXPECT_TRUE(IsBufferAligned(recycled.data()));
  const Matrix fresh(8, 8);
  EXPECT_EQ(std::memcmp(recycled.data(), fresh.data(),
                        sizeof(float) * static_cast<size_t>(fresh.size())),
            0);
}

TEST(MatrixPoolTest, BestFitNeverExceedsTheSlack) {
  MatrixPool pool;
  Matrix a = pool.Acquire(1, 100);
  Matrix b = pool.Acquire(1, 105);
  Matrix c = pool.Acquire(1, 200);
  const float* pa = a.data();
  const float* pc = c.data();
  pool.Release(std::move(a));
  pool.Release(std::move(b));
  pool.Release(std::move(c));

  // 96 elements: 100 and 105 both fit; the smallest wins.
  Matrix fit = pool.Acquire(1, 96);
  EXPECT_EQ(fit.data(), pa);
  // 170 elements may take at most 170 + 170 / 8 = 191: the 200 buffer is
  // too loose, so this is a fresh allocation.
  Matrix loose = pool.Acquire(10, 17);
  EXPECT_NE(loose.data(), pc);
  EXPECT_EQ(pool.buffers_retained(), 2);
  // 178 elements may take 200.
  Matrix tight = pool.Acquire(2, 89);
  EXPECT_EQ(tight.data(), pc);
  // Same element count, any shape: capacity is all that matters.
  pool.Release(std::move(tight));
  Matrix transposed = pool.Acquire(89, 2);
  EXPECT_EQ(transposed.data(), pc);
}

TEST(MatrixPoolTest, ClearFreesEverything) {
  MatrixPool pool;
  Matrix a = pool.Acquire(2, 2);
  Matrix b = pool.Acquire(5, 1);
  pool.Release(std::move(a));
  pool.Release(std::move(b));
  EXPECT_EQ(pool.buffers_retained(), 2);
  pool.Clear();
  EXPECT_EQ(pool.buffers_retained(), 0);
  EXPECT_EQ(pool.bytes_retained(), 0);
}

TEST(MatrixPoolTest, EmptyMatricesAreNeverPooled) {
  MatrixPool pool;
  pool.Release(pool.Acquire(0, 3));
  EXPECT_EQ(pool.buffers_retained(), 0);
  EXPECT_EQ(pool.peak_bytes_lent(), 0);
}

// Retention is bounded by what the pool has lent at once, so a buffer it
// never lent has no room in it.
TEST(MatrixPoolTest, ForeignBuffersBeyondThePeakAreFreed) {
  MatrixPool pool;
  pool.Release(Matrix(1, 3));
  EXPECT_EQ(pool.buffers_retained(), 0);
  EXPECT_EQ(pool.bytes_retained(), 0);
}

TEST(MatrixPoolTest, DisabledPoolAllocatesAndFrees) {
  MatrixPool pool;
  SetMatrixPoolEnabled(false);
  pool.Release(pool.Acquire(2, 2));
  EXPECT_EQ(pool.buffers_retained(), 0);

  // A buffer pooled while enabled is not handed out while disabled.
  SetMatrixPoolEnabled(true);
  pool.Release(pool.Acquire(2, 2));
  EXPECT_EQ(pool.buffers_retained(), 1);
  SetMatrixPoolEnabled(false);
  Matrix fresh = pool.Acquire(2, 2);
  EXPECT_EQ(fresh.rows(), 2);
  EXPECT_EQ(pool.buffers_retained(), 1);
  SetMatrixPoolEnabled(true);
}

TEST(MatrixPoolTest, BytesRetainedTracksReleasesAndAcquires) {
  MatrixPool pool;
  EXPECT_EQ(pool.bytes_retained(), 0);
  Matrix a = pool.Acquire(2, 3);
  Matrix b = pool.Acquire(5, 1);
  EXPECT_EQ(pool.peak_bytes_lent(), (6 + 5) * kFloat);
  pool.Release(std::move(a));
  EXPECT_EQ(pool.bytes_retained(), 6 * kFloat);
  pool.Release(std::move(b));
  EXPECT_EQ(pool.bytes_retained(), (6 + 5) * kFloat);
  Matrix m = pool.Acquire(3, 2);  // Reuses the 6-element buffer.
  EXPECT_EQ(pool.bytes_retained(), 5 * kFloat);
  pool.Clear();
  EXPECT_EQ(pool.bytes_retained(), 0);
}

// A release that would retain more than the lent peak evicts the least
// recently released buffers first.
TEST(MatrixPoolTest, OverflowEvictsTheLeastRecentlyReleased) {
  MatrixPool pool;
  Matrix a = pool.Acquire(1, 100);
  Matrix b = pool.Acquire(1, 200);
  const float* pb = b.data();
  pool.Release(std::move(a));  // Oldest.
  pool.Release(std::move(b));
  EXPECT_EQ(pool.bytes_retained(), 300 * kFloat);
  EXPECT_EQ(pool.peak_bytes_lent(), 300 * kFloat);

  // 50 elements fit neither (100 > 50 + 6): a fresh buffer, and releasing
  // it pushes retention past the peak, so the 100-element buffer goes.
  pool.Release(pool.Acquire(1, 50));
  EXPECT_EQ(pool.bytes_retained(), 250 * kFloat);
  EXPECT_EQ(pool.buffers_retained(), 2);
  Matrix c = pool.Acquire(1, 200);
  EXPECT_EQ(c.data(), pb);
  Matrix d = pool.Acquire(1, 100);
  EXPECT_EQ(pool.buffers_retained(), 1);  // 100 was a miss: only 50 left.
}

// The retention bound: whatever the request sizes, retained bytes never
// exceed the most bytes lent at once. Each "step" lends a drifting mix of
// sizes (a sampled run's frontier shapes) and releases them all.
TEST(MatrixPoolTest, RetainedBytesStayWithinThePeakLent) {
  MatrixPool pool;
  Rng rng(7);
  int64_t max_step_bytes = 0;
  for (int step = 0; step < 200; ++step) {
    std::vector<Matrix> lent;
    int64_t step_bytes = 0;
    const int buffers = 5 + static_cast<int>(rng.UniformInt(20));
    for (int i = 0; i < buffers; ++i) {
      const int rows = 1 + static_cast<int>(rng.UniformInt(64)) + step;
      const int cols = 1 + static_cast<int>(rng.UniformInt(8));
      lent.push_back(pool.Acquire(rows, cols));
      step_bytes += static_cast<int64_t>(rows) * cols * kFloat;
    }
    max_step_bytes = std::max(max_step_bytes, step_bytes);
    for (Matrix& m : lent) {
      pool.Release(std::move(m));
      ASSERT_LE(pool.bytes_retained(), pool.peak_bytes_lent()) << step;
    }
  }
  EXPECT_GT(pool.bytes_retained(), 0);
  // Slack can make a step's capacities up to 1/8 above its request sizes.
  EXPECT_LE(pool.peak_bytes_lent(), max_step_bytes + max_step_bytes / 8);
}

// Once the pool holds a step's buffers, repeating the step allocates
// nothing: no heap node per Acquire or Release.
TEST(MatrixPoolTest, SteadyStateAllocatesNothing) {
  MatrixPool pool;
  const int shapes[][2] = {{64, 16}, {64, 16}, {1, 1}, {16, 7}, {300, 2}};
  const auto step = [&]() {
    std::vector<Matrix> lent;
    lent.reserve(8);
    for (const auto& shape : shapes) {
      lent.push_back(pool.Acquire(shape[0], shape[1]));
    }
    for (Matrix& m : lent) pool.Release(std::move(m));
  };
  step();
  step();
  const int64_t before = g_heap_allocations.load();
  for (int i = 0; i < 10; ++i) {
    Matrix a = pool.Acquire(64, 16);
    Matrix b = pool.Acquire(300, 2);
    pool.Release(std::move(b));
    pool.Release(std::move(a));
  }
  const int64_t after = g_heap_allocations.load();
  EXPECT_EQ(after, before);
  EXPECT_EQ(pool.buffers_retained(), 5);
}

TEST(MatrixPoolTest, TrimFreesLargestFirst) {
  MatrixPool pool;
  Matrix a = pool.Acquire(2, 2);    // 16 bytes
  Matrix b = pool.Acquire(10, 10);  // 400 bytes
  Matrix c = pool.Acquire(50, 10);  // 2000 bytes
  pool.Release(std::move(a));
  pool.Release(std::move(b));
  pool.Release(std::move(c));
  EXPECT_EQ(pool.bytes_retained(), 16 + 400 + 2000);

  // Trimming to 500 bytes must drop the big buffer and keep the small ones.
  const int64_t freed = pool.Trim(500);
  EXPECT_EQ(freed, 2000);
  EXPECT_EQ(pool.bytes_retained(), 416);
  EXPECT_EQ(pool.buffers_retained(), 2);

  // Trim(0) empties the pool and reports the remainder.
  EXPECT_EQ(pool.Trim(0), 416);
  EXPECT_EQ(pool.bytes_retained(), 0);
  EXPECT_EQ(pool.Trim(0), 0);
}

// Trim restarts the peak from what is lent and retained now, so a smaller
// workload after it is bounded by its own working set.
TEST(MatrixPoolTest, TrimRestartsThePeak) {
  MatrixPool pool;
  pool.Release(pool.Acquire(100, 10));
  EXPECT_EQ(pool.peak_bytes_lent(), 1000 * kFloat);
  Matrix held = pool.Acquire(2, 2);
  pool.Trim(0);
  EXPECT_EQ(pool.peak_bytes_lent(), 4 * kFloat);
  pool.Release(std::move(held));
  EXPECT_EQ(pool.bytes_retained(), 4 * kFloat);
}

TEST(MatrixPoolTest, BytesRetainedTelemetryIsSigned) {
  MatrixPool pool;
  SetTelemetryEnabled(true);
  ResetTelemetry();
  pool.Release(pool.Acquire(4, 4));   // +64 bytes
  Matrix m = pool.Acquire(4, 4);      // -64 bytes (recycled)
  pool.Release(std::move(m));         // +64 bytes
  pool.Release(pool.Acquire(2, 2));   // Evicts the 4 x 4 buffer: +16 - 64.
  pool.Trim(0);                       // -16 bytes
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(false);

  const MetricStat* retained = snapshot.Find("pool.bytes_retained");
  ASSERT_NE(retained, nullptr);
  // The running item total nets to zero: everything parked was released.
  EXPECT_EQ(retained->items, 0);
  EXPECT_EQ(pool.bytes_retained(), 0);
}

TEST(MatrixPoolTest, TelemetryCountsHitsAndMisses) {
  MatrixPool pool;
  SetTelemetryEnabled(true);
  ResetTelemetry();
  Matrix m = pool.Acquire(2, 3);            // miss
  pool.Release(std::move(m));
  Matrix again = pool.Acquire(2, 3);        // hit
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(false);

  const MetricStat* hit = snapshot.Find("pool.hit");
  const MetricStat* miss = snapshot.Find("pool.miss");
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(hit->count, 1);
  EXPECT_EQ(miss->count, 1);
  // items carries the buffer element count (2 x 3).
  EXPECT_EQ(hit->items, 6);
}

TEST(MatrixPoolTest, AcquiredAndRecycledBuffersAreCacheLineAligned) {
  MatrixPool pool;
  Matrix fresh = pool.Acquire(3, 7);
  EXPECT_TRUE(IsBufferAligned(fresh.data()));
  pool.Release(std::move(fresh));
  Matrix recycled = pool.Acquire(3, 7);  // Pool hit: the same 64B buffer.
  EXPECT_TRUE(IsBufferAligned(recycled.data()));
}

#if defined(__SANITIZE_ADDRESS__)
// A recycled buffer's slack keeps the previous tenant's values; ASan must
// report a read past size() instead of returning them.
TEST(MatrixPoolDeathTest, ReadPastARecycledBufferIsReported) {
  MatrixPool pool;
  pool.Release(pool.Acquire(1, 9));
  Matrix recycled = pool.Acquire(1, 8);  // The 9-element buffer.
  ASSERT_EQ(recycled.size(), 8);
  const volatile float* data = recycled.data();
  EXPECT_DEATH({ (void)data[8]; }, "use-after-poison");
}
#endif

}  // namespace
}  // namespace skipnode
