// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Dense kernels over Matrix. These are the primitives the autograd ops and
// the analysis toolkit are built on. All functions check shapes.

#ifndef SKIPNODE_TENSOR_OPS_H_
#define SKIPNODE_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace skipnode {

// --- GEMM family -----------------------------------------------------------

// Every dense product funnels through Gemm so the thread pool is wired in
// exactly one place. The historical MatMul* names below are inline wrappers.
struct GemmOptions {
  bool transpose_a = false;
  bool transpose_b = false;
  // false: out = op(A) * op(B);  true: out += op(A) * op(B).
  bool accumulate = false;
  // Opt-in (DESIGN §14): reduction-shaped variants (A * B^T) may use the
  // reassociated kLanes-accumulator dot instead of the exact serial
  // double-precision sum. Deterministic at any thread count (the lane order
  // is a function of the length alone) but not bitwise equal to the exact
  // path; default off, plumbed from StrategyConfig::fast_math.
  bool fast_math = false;
};

// out (+)= op(A) * op(B) with op fixed by `options`; at most one of the two
// transposes may be set (A^T * B^T aborts). Shapes are checked against the
// transposed views. Parallel over output rows: each thread owns a disjoint
// contiguous block of rows of `out`, and the accumulation order within any
// row is independent of the thread count, so results are bitwise identical
// for every SKIPNODE_NUM_THREADS (see base/parallel.h).
void Gemm(const Matrix& a, const Matrix& b, Matrix& out,
          const GemmOptions& options = {});

// Returns A * B. A is m x k, B is k x n.
inline Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  Gemm(a, b, out);
  return out;
}

// out += A * B (out must already be m x n).
inline void MatMulAccumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  Gemm(a, b, out, {.accumulate = true});
}

// Returns A^T * B. A is m x k, B is m x n; result is k x n.
inline Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  Gemm(a, b, out, {.transpose_a = true});
  return out;
}

// out += A^T * B.
inline void MatMulTransposeAAccumulate(const Matrix& a, const Matrix& b,
                                       Matrix& out) {
  Gemm(a, b, out, {.transpose_a = true, .accumulate = true});
}

// Returns A * B^T. A is m x n, B is k x n; result is m x k.
inline Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  Gemm(a, b, out, {.transpose_b = true});
  return out;
}

// out += A * B^T.
inline void MatMulTransposeBAccumulate(const Matrix& a, const Matrix& b,
                                       Matrix& out) {
  Gemm(a, b, out, {.transpose_b = true, .accumulate = true});
}

// --- Element-wise ----------------------------------------------------------

Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Hadamard(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, float s);
// out += s * a.
void AddScaled(const Matrix& a, float s, Matrix& out);
// `Into` variants write into a caller-owned buffer (same shape required) so
// tape ops can stage results in pool-acquired matrices instead of fresh
// heap copies; every element is overwritten with the same arithmetic as the
// returning forms, so the results are bitwise identical.
void HadamardInto(const Matrix& a, const Matrix& b, Matrix& out);
void ScaleInto(const Matrix& a, float s, Matrix& out);
// out = alpha * a + beta * b, fused in one pass. Bitwise identical to
// ScaleInto(a, alpha, out); AddScaled(b, beta, out) — same three roundings
// per element.
void AxpbyInto(const Matrix& a, const Matrix& b, float alpha, float beta,
               Matrix& out);

// ReLU(x) element-wise.
Matrix Relu(const Matrix& x);
void ReluInto(const Matrix& x, Matrix& out);
// Gradient pass-through: returns grad .* (x > 0).
Matrix ReluBackward(const Matrix& x, const Matrix& grad);

// --- Shape manipulation ----------------------------------------------------

Matrix Transpose(const Matrix& a);

// Horizontally concatenates matrices with equal row counts. The `Into`
// form writes every element of a caller-owned rows x (sum of cols) buffer.
Matrix ConcatCols(const std::vector<const Matrix*>& parts);
void ConcatColsInto(const std::vector<const Matrix*>& parts, Matrix& out);

// Returns x restricted to the given rows (len(rows) x cols). The `Into` form
// writes every element of a caller-owned len(rows) x cols buffer.
Matrix GatherRows(const Matrix& x, const std::vector<int>& rows);
void GatherRowsInto(const Matrix& x, const std::vector<int>& rows,
                    Matrix& out);

// out.row(rows[i]) += src.row(i) for every i. Used by gather's backward.
void ScatterAddRows(const Matrix& src, const std::vector<int>& rows,
                    Matrix& out);

// out.row(r) = src.row(r) for every row with mask[r] != 0; other rows are
// untouched. The skipped-row copy of the fused SkipNode forward.
void CopyRowsWhere(const Matrix& src, const std::vector<uint8_t>& mask,
                   Matrix& out);

// out.row(r) += src.row(r) for every row with mask[r] != 0. The skipped-row
// gradient passthrough of the fused SkipNode backward. Row-parallel: each
// output row is owned by one thread and written at most once.
void AddRowsWhere(const Matrix& src, const std::vector<uint8_t>& mask,
                  Matrix& out);

// --- Row-wise / reduction helpers -------------------------------------------

// Mean of each column (1 x cols).
Matrix ColumnMeans(const Matrix& x);

// x minus a 1 x cols row vector broadcast over rows.
Matrix SubtractRowVector(const Matrix& x, const Matrix& v);

// Numerically-stable row-wise softmax.
Matrix RowSoftmax(const Matrix& x);

// Numerically-stable row-wise log-softmax.
Matrix RowLogSoftmax(const Matrix& x);

// L2 norm of each row (rows x 1).
Matrix RowNorms(const Matrix& x);

// Dot products of corresponding rows of a and b (rows x 1); the `Into`
// form writes a caller-owned rows x 1 buffer.
Matrix RowDots(const Matrix& a, const Matrix& b);
void RowDotsInto(const Matrix& a, const Matrix& b, Matrix& out);

// Cosine similarity of two equal-length float spans; 0 if either is zero.
float CosineSimilarity(const float* a, const float* b, int n);

// --- Numerical health scans -------------------------------------------------
// Cheap guardrail kernels for the trainer's health checks (DESIGN §8). All
// of them are pure reads and follow the row-ownership contract: per-row
// flags are computed under ParallelFor, then reduced serially, so the
// results are bitwise identical at any thread count.

// flags[i] = 1 iff row i contains a NaN or an Inf (rows x 1 of 0/1).
std::vector<uint8_t> RowNonFiniteFlags(const Matrix& x);

// True iff any element of x is NaN or Inf.
bool HasNonFinite(const Matrix& x);

// Number of NaN / Inf elements in x.
int64_t CountNonFinite(const Matrix& x);

// Largest row L2 norm (0 for empty matrices) — an overflow tripwire that
// trips before values actually reach Inf.
float MaxRowNorm(const Matrix& x);

// --- Spectral helper ---------------------------------------------------------

// Largest singular value of w via power iteration on w^T w.
float MaxSingularValue(const Matrix& w, int iterations = 50, Rng* rng = nullptr);

// Rescales w in place so its max singular value equals `target`.
void SetMaxSingularValue(Matrix& w, float target);

// --- Comparison (tests) ------------------------------------------------------

// Max absolute element-wise difference; requires equal shapes.
float MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace skipnode

#endif  // SKIPNODE_TENSOR_OPS_H_
