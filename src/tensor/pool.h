// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Workspace pool for Matrix buffers. The one-Tape-per-step design allocates
// and frees the same value and gradient buffers every training step; the
// pool recycles that storage across steps instead (DESIGN §10).
//
// Contract:
//   * Acquire(rows, cols) returns a matrix that is bit-for-bit identical to
//     a freshly constructed Matrix(rows, cols). It reuses the smallest free
//     buffer whose capacity holds rows * cols elements with at most
//     1/kSlackDivisor of them to spare, zeroing the size() prefix; with no
//     such buffer it allocates exactly rows * cols elements. Full-batch
//     shapes therefore recycle exactly, and the nearby frontier sizes of
//     sampled minibatches share storage.
//   * Release(m) returns m's storage to the pool. The pool never retains
//     more bytes than it has lent at once (the peak working set of one
//     training step): a release that would retain more first evicts the
//     least recently released buffers. Retention follows observed use, so
//     no shape or batch can accumulate and there is no cap to tune.
//   * Apart from a miss's own buffer, Acquire and Release allocate no heap
//     memory once the bookkeeping has grown to the working set's
//     capacities.
//   * The pool is only touched from the thread that builds and destroys
//     Tapes; a mutex makes it safe anyway (snapshots, tests).
//   * Under AddressSanitizer the unused tail [size, capacity) of a lent
//     buffer is poisoned, so a read past size() reports instead of
//     returning a recycled buffer's stale values.
//
// Telemetry: every Acquire bumps pool.hit (recycled storage) or pool.miss
// (fresh allocation); items carries the buffer element count. The signed
// counter pool.bytes_retained tracks bytes parked in the pool (positive on
// retain, negative on reuse or free), so a snapshot's running total is the
// resident pool footprint. Disable the pool entirely with
// SetMatrixPoolEnabled(false) or SKIPNODE_POOL=0 — Acquire then always
// allocates and Release frees, reproducing the pre-pool behaviour exactly.

#ifndef SKIPNODE_TENSOR_POOL_H_
#define SKIPNODE_TENSOR_POOL_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "tensor/matrix.h"

namespace skipnode {

// Process-wide enable switch. Defaults to on unless the SKIPNODE_POOL
// environment variable is set to "0".
bool MatrixPoolEnabled();
void SetMatrixPoolEnabled(bool enabled);

class MatrixPool {
 public:
  // A free buffer of capacity c serves a request of n elements when
  // n <= c <= n + n / kSlackDivisor.
  static constexpr int64_t kSlackDivisor = 8;

  // Zero-filled rows x cols matrix, recycled when a free buffer fits.
  Matrix Acquire(int rows, int cols);

  // Returns the matrix's storage to the pool (or frees it when the pool is
  // disabled). The moved-from matrix is 0x0.
  void Release(Matrix m);

  // Frees pooled buffers (largest first) until at most target_bytes remain;
  // returns the bytes freed. Trim(0) empties the pool — what bench/scale
  // calls between cells so one cell's workspaces don't count against the
  // next cell's peak-RSS budget. The lent peak restarts from what is lent
  // and retained now, so a later, smaller workload is bounded by its own
  // working set.
  int64_t Trim(int64_t target_bytes = 0);

  // Frees every pooled buffer (tests, memory pressure). Same as Trim(0).
  void Clear();

  // Number of buffers currently pooled.
  int buffers_retained() const;

  // Total bytes currently parked in the pool (buffer capacities).
  int64_t bytes_retained() const;

  // Most bytes lent out at once since construction or the last Trim; the
  // bound on bytes_retained().
  int64_t peak_bytes_lent() const;

 private:
  struct Entry {
    FloatBuffer buffer;
    uint64_t released_at = 0;
  };
  // The free buffers of one capacity (elements), oldest release first.
  struct Shelf {
    int64_t capacity = 0;
    std::vector<Entry> entries;
  };

  // The first shelf whose capacity is >= `capacity`, or end().
  std::vector<Shelf>::iterator FirstShelfAtLeastLocked(int64_t capacity);
  // Frees the least recently released buffer; returns its bytes.
  int64_t EvictOldestLocked();
  // Removes the (now empty) shelf at `index`, keeping its entry storage.
  void DropShelfLocked(size_t index);

  mutable std::mutex mutex_;
  // Non-empty shelves in ascending capacity.
  std::vector<Shelf> shelves_;
  // Entry vectors of dropped shelves, reused by new ones so the steady
  // state allocates nothing.
  std::vector<std::vector<Entry>> spare_entries_;
  int buffers_retained_ = 0;
  int64_t bytes_retained_ = 0;
  int64_t bytes_lent_ = 0;
  int64_t peak_bytes_lent_ = 0;
  uint64_t release_clock_ = 0;
};

// The pool every Tape draws from.
MatrixPool& GlobalMatrixPool();

}  // namespace skipnode

#endif  // SKIPNODE_TENSOR_POOL_H_
