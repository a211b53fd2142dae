// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tensor/pool.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "base/check.h"
#include "base/telemetry.h"

namespace skipnode {

namespace {

std::atomic<bool> g_pool_enabled{[]() {
  const char* env = std::getenv("SKIPNODE_POOL");
  return env == nullptr || std::strcmp(env, "0") != 0;
}()};

int64_t CapacityBytes(const FloatBuffer& buffer) {
  return static_cast<int64_t>(buffer.capacity()) *
         static_cast<int64_t>(sizeof(float));
}

// Marks [size, capacity) of a lent buffer unaddressable under ASan, and the
// whole capacity addressable again when it comes back. No-ops otherwise.
void PoisonTail(FloatBuffer& buffer) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(buffer.data() + buffer.size(),
                            (buffer.capacity() - buffer.size()) *
                                sizeof(float));
#else
  (void)buffer;
#endif
}

void UnpoisonTail(FloatBuffer& buffer) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(buffer.data() + buffer.size(),
                              (buffer.capacity() - buffer.size()) *
                                  sizeof(float));
#else
  (void)buffer;
#endif
}

}  // namespace

bool MatrixPoolEnabled() {
  return g_pool_enabled.load(std::memory_order_relaxed);
}

void SetMatrixPoolEnabled(bool enabled) {
  g_pool_enabled.store(enabled, std::memory_order_relaxed);
}

Matrix MatrixPool::Acquire(int rows, int cols) {
  SKIPNODE_CHECK(rows >= 0 && cols >= 0);
  const int64_t size = static_cast<int64_t>(rows) * cols;
  if (!MatrixPoolEnabled() || size == 0) {
    CountMetric("pool.miss", size);
    return Matrix(rows, cols);
  }
  std::unique_lock<std::mutex> lock(mutex_);
  // Best fit: the smallest capacity >= size, if it is within the slack.
  const auto it = FirstShelfAtLeastLocked(size);
  if (it == shelves_.end() || it->capacity > size + size / kSlackDivisor) {
    bytes_lent_ += size * static_cast<int64_t>(sizeof(float));
    peak_bytes_lent_ = std::max(peak_bytes_lent_, bytes_lent_);
    lock.unlock();
    CountMetric("pool.miss", size);
    return Matrix(rows, cols);
  }
  // Newest first: the most recently released buffer is the likeliest to
  // still be in cache.
  FloatBuffer storage = std::move(it->entries.back().buffer);
  it->entries.pop_back();
  if (it->entries.empty()) DropShelfLocked(it - shelves_.begin());
  const int64_t bytes = CapacityBytes(storage);
  --buffers_retained_;
  bytes_retained_ -= bytes;
  bytes_lent_ += bytes;
  peak_bytes_lent_ = std::max(peak_bytes_lent_, bytes_lent_);
  lock.unlock();
  CountMetric("pool.hit", size);
  CountMetric("pool.bytes_retained", -bytes);
  // Zeroes exactly the size() prefix, in place (size <= capacity), which
  // keeps Acquire bit-for-bit equivalent to Matrix(rows, cols).
  storage.assign(static_cast<size_t>(size), 0.0f);
  PoisonTail(storage);
  return Matrix(rows, cols, std::move(storage));
}

void MatrixPool::Release(Matrix m) {
  if (m.size() == 0) return;
  FloatBuffer storage = std::move(m).TakeStorage();
  UnpoisonTail(storage);
  const int64_t capacity = static_cast<int64_t>(storage.capacity());
  const int64_t bytes = CapacityBytes(storage);
  std::unique_lock<std::mutex> lock(mutex_);
  // A buffer the pool never lent (or lent while disabled) would drive the
  // count negative; clamping keeps the bound conservative.
  bytes_lent_ = std::max<int64_t>(0, bytes_lent_ - bytes);
  if (!MatrixPoolEnabled() || bytes > peak_bytes_lent_) {
    return;  // The storage frees on scope exit.
  }
  int64_t evicted = 0;
  while (bytes_retained_ + bytes > peak_bytes_lent_) {
    evicted += EvictOldestLocked();
  }
  auto it = FirstShelfAtLeastLocked(capacity);
  if (it == shelves_.end() || it->capacity != capacity) {
    Shelf shelf;
    shelf.capacity = capacity;
    if (!spare_entries_.empty()) {
      shelf.entries = std::move(spare_entries_.back());
      spare_entries_.pop_back();
    }
    it = shelves_.insert(it, std::move(shelf));
  }
  it->entries.push_back({std::move(storage), ++release_clock_});
  ++buffers_retained_;
  bytes_retained_ += bytes;
  lock.unlock();
  CountMetric("pool.bytes_retained", bytes - evicted);
}

std::vector<MatrixPool::Shelf>::iterator MatrixPool::FirstShelfAtLeastLocked(
    int64_t capacity) {
  return std::lower_bound(
      shelves_.begin(), shelves_.end(), capacity,
      [](const Shelf& shelf, int64_t n) { return shelf.capacity < n; });
}

int64_t MatrixPool::EvictOldestLocked() {
  size_t oldest = 0;
  for (size_t i = 1; i < shelves_.size(); ++i) {
    if (shelves_[i].entries.front().released_at <
        shelves_[oldest].entries.front().released_at) {
      oldest = i;
    }
  }
  std::vector<Entry>& entries = shelves_[oldest].entries;
  const int64_t bytes = CapacityBytes(entries.front().buffer);
  entries.erase(entries.begin());
  if (entries.empty()) DropShelfLocked(oldest);
  --buffers_retained_;
  bytes_retained_ -= bytes;
  return bytes;
}

void MatrixPool::DropShelfLocked(size_t index) {
  spare_entries_.push_back(std::move(shelves_[index].entries));
  shelves_.erase(shelves_.begin() + static_cast<std::ptrdiff_t>(index));
}

int64_t MatrixPool::Trim(int64_t target_bytes) {
  SKIPNODE_CHECK(target_bytes >= 0);
  std::unique_lock<std::mutex> lock(mutex_);
  int64_t freed = 0;
  // Largest capacities first, so a small target keeps the cheap hot
  // buffers.
  while (!shelves_.empty() && bytes_retained_ > target_bytes) {
    std::vector<Entry>& entries = shelves_.back().entries;
    const int64_t bytes = CapacityBytes(entries.back().buffer);
    entries.pop_back();
    if (entries.empty()) DropShelfLocked(shelves_.size() - 1);
    --buffers_retained_;
    bytes_retained_ -= bytes;
    freed += bytes;
  }
  peak_bytes_lent_ = std::max(bytes_lent_, bytes_retained_);
  lock.unlock();
  if (freed > 0) CountMetric("pool.bytes_retained", -freed);
  return freed;
}

void MatrixPool::Clear() { Trim(0); }

int MatrixPool::buffers_retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffers_retained_;
}

int64_t MatrixPool::bytes_retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_retained_;
}

int64_t MatrixPool::peak_bytes_lent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_bytes_lent_;
}

MatrixPool& GlobalMatrixPool() {
  static MatrixPool* pool = new MatrixPool();
  return *pool;
}

}  // namespace skipnode
