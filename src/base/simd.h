// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Width-N microkernels for the hot inner loops (DESIGN §14). Every kernel
// exists twice:
//
//   * simd::Foo     — the vectorized form: a stripmined loop of kLanes
//     independent lanes plus a scalar tail, which the compiler vectorizes
//     for the host baseline. Lanes are independent output elements, so
//     vectorizing reorders nothing: every kernel here is bitwise identical
//     to its scalar twin.
//   * simd::FooRef  — the retained scalar reference (simd_ref.cc, compiled
//     with auto-vectorization disabled). This is the retired inline loop,
//     kept callable so tests pin Foo == FooRef bitwise and benches measure
//     the speedup against a genuinely scalar baseline.
//
// Call sites hoist `const bool vec = simd::Enabled()` once per kernel
// invocation and branch to Foo or FooRef; the runtime switch (SKIPNODE_SIMD
// env: unset/"1" on, "0" scalar reference, anything else aborts) exists so
// one binary can A/B the two paths and tools/check_simd.sh can prove them
// bitwise interchangeable.
//
// The one deliberate exception is DotFast: a reassociated kLanes-accumulator
// dot product for the reduction-shaped Gemm paths, where vectorization
// *must* reorder the sum. It ships behind the fast_math opt-in
// (GemmOptions::fast_math / StrategyConfig::fast_math, default off), and its
// fixed lane-then-tree order makes it deterministic at any thread count and
// bitwise identical across the runtime switch — just not to the exact
// serial path.
//
// No kernel may use an FMA contraction: fusing skips the intermediate
// rounding and breaks Foo == FooRef. The build forces -ffp-contract=off.

#ifndef SKIPNODE_BASE_SIMD_H_
#define SKIPNODE_BASE_SIMD_H_

#include <cmath>
#include <cstdint>

namespace skipnode::simd {

// Stripmine width: eight floats fill one 256-bit vector, or two 128-bit
// ones on SSE2/NEON-only targets, which vectorize the same kLanes-trip
// inner loop.
inline constexpr int kLanes = 8;

// --- Runtime dispatch -------------------------------------------------------

// Whether call sites should take the vectorized kernels. Initialised from
// the SKIPNODE_SIMD environment variable on first use (unset/"1" = on,
// "0" = scalar reference, anything else aborts).
bool Enabled();
// Overrides the runtime switch (tests, the micro_kernels A/B sweep).
void SetEnabled(bool enabled);
// Parses a SKIPNODE_SIMD value: nullptr/"1" -> true, "0" -> false, anything
// else aborts with a clear message. Shared with bench::BenchConfig::FromEnv
// so the bench harness rejects bad values instead of silently defaulting.
bool ParseEnabledEnv(const char* value);

// --- Scalar reference kernels (simd_ref.cc, never auto-vectorized) ---------

void AxpyRef(float a, const float* x, float* out, int64_t n);
void AccumulateRef(const float* x, float* out, int64_t n);
void SubtractRef(const float* x, float* out, int64_t n);
void ScaleRef(const float* x, float s, float* out, int64_t n);
void ScaleInPlaceRef(float* x, float s, int64_t n);
void AddScalarInPlaceRef(float* x, float b, int64_t n);
void AddRef(const float* a, const float* b, float* out, int64_t n);
void MulRef(const float* a, const float* b, float* out, int64_t n);
void AxpbyRef(float alpha, const float* a, float beta, const float* b,
              float* out, int64_t n);
void ReluRef(const float* x, float* out, int64_t n);
void ReluGradInPlaceRef(const float* x, float* g, int64_t n);
void SgdStepRef(float* value, const float* grad, int64_t n,
                float learning_rate, float weight_decay);

// Constants of one Adam step, precomputed outside the element loop. Every
// field is derived so the per-element arithmetic matches the historical
// inline expressions bit for bit (e.g. one_minus_beta1 == 1.0f - beta1, the
// exact float the old loop recomputed each iteration).
struct AdamConstants {
  float beta1;
  float one_minus_beta1;
  float beta2;
  float one_minus_beta2;
  float bias1;  // 1 - beta1^t
  float bias2;  // 1 - beta2^t
  float learning_rate;
  float epsilon;
  float weight_decay;     // coupled L2 term folded into the gradient
  float lr_weight_decay;  // decoupled (AdamW) shrink factor: lr * wd
  bool decoupled;
};

void AdamStepRef(float* value, const float* grad, float* m, float* v,
                 int64_t n, const AdamConstants& k);
float DotFastRef(const float* a, const float* b, int64_t n);
void AxpyDoubleRef(double a, const double* x, double* acc, int64_t n);

// --- Vectorized kernels ----------------------------------------------------
// Each is the Ref loop stripmined into kLanes independent lanes — same
// per-element expression, so bitwise identical — with a scalar tail for
// n % kLanes. The compiler vectorizes the kLanes-trip inner loop for the
// host baseline.

inline void Axpy(float a, const float* __restrict x, float* __restrict out,
                 int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] += a * x[i + l];
  }
  for (; i < n; ++i) out[i] += a * x[i];
}

inline void Accumulate(const float* __restrict x, float* __restrict out,
                       int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] += x[i + l];
  }
  for (; i < n; ++i) out[i] += x[i];
}

inline void Subtract(const float* __restrict x, float* __restrict out,
                     int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] -= x[i + l];
  }
  for (; i < n; ++i) out[i] -= x[i];
}

inline void Scale(const float* __restrict x, float s, float* __restrict out,
                  int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] = x[i + l] * s;
  }
  for (; i < n; ++i) out[i] = x[i] * s;
}

inline void ScaleInPlace(float* x, float s, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) x[i + l] *= s;
  }
  for (; i < n; ++i) x[i] *= s;
}

inline void AddScalarInPlace(float* x, float b, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) x[i + l] += b;
  }
  for (; i < n; ++i) x[i] += b;
}

inline void Add(const float* __restrict a, const float* __restrict b,
                float* __restrict out, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] = a[i + l] + b[i + l];
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

inline void Mul(const float* __restrict a, const float* __restrict b,
                float* __restrict out, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] = a[i + l] * b[i + l];
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

inline void Axpby(float alpha, const float* __restrict a, float beta,
                  const float* __restrict b, float* __restrict out,
                  int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      out[i + l] = alpha * a[i + l] + beta * b[i + l];
    }
  }
  for (; i < n; ++i) out[i] = alpha * a[i] + beta * b[i];
}

inline void Relu(const float* __restrict x, float* __restrict out,
                 int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      out[i + l] = x[i + l] < 0.0f ? 0.0f : x[i + l];
    }
  }
  for (; i < n; ++i) out[i] = x[i] < 0.0f ? 0.0f : x[i];
}

inline void ReluGradInPlace(const float* x, float* g, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      g[i + l] = x[i + l] <= 0.0f ? 0.0f : g[i + l];
    }
  }
  for (; i < n; ++i) g[i] = x[i] <= 0.0f ? 0.0f : g[i];
}

inline void SgdStep(float* value, const float* grad, int64_t n,
                    float learning_rate, float weight_decay) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      value[i + l] -=
          learning_rate * (grad[i + l] + weight_decay * value[i + l]);
    }
  }
  for (; i < n; ++i) {
    value[i] -= learning_rate * (grad[i] + weight_decay * value[i]);
  }
}

// Hoisting the coupled/decoupled branch gives the compiler two straight-line
// loops it can vectorize (vsqrtps/vdivps are correctly rounded per IEEE 754,
// so the vector forms are bitwise identical to the scalar ones).
inline void AdamStep(float* value, const float* grad, float* m, float* v,
                     int64_t n, const AdamConstants& k) {
  if (!k.decoupled) {
    for (int64_t i = 0; i < n; ++i) {
      const float g = grad[i] + k.weight_decay * value[i];
      m[i] = k.beta1 * m[i] + k.one_minus_beta1 * g;
      v[i] = k.beta2 * v[i] + k.one_minus_beta2 * g * g;
      const float m_hat = m[i] / k.bias1;
      const float v_hat = v[i] / k.bias2;
      value[i] -= k.learning_rate * m_hat / (std::sqrt(v_hat) + k.epsilon);
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      const float g = grad[i] + 0.0f;
      m[i] = k.beta1 * m[i] + k.one_minus_beta1 * g;
      v[i] = k.beta2 * v[i] + k.one_minus_beta2 * g * g;
      const float m_hat = m[i] / k.bias1;
      const float v_hat = v[i] / k.bias2;
      value[i] -= k.learning_rate * m_hat / (std::sqrt(v_hat) + k.epsilon);
      value[i] -= k.lr_weight_decay * value[i];
    }
  }
}

// Double-precision strip update acc[l] += a * x[l]: one step of the exact
// transpose-B Gemm (tensor/ops.cc), whose output elements each keep their
// own double accumulator. Lanes are distinct output elements, so this is as
// order-preserving as Axpy.
inline void AxpyDouble(double a, const double* __restrict x,
                       double* __restrict acc, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) acc[i + l] += a * x[i + l];
  }
  for (; i < n; ++i) acc[i] += a * x[i];
}

// Reassociated dot: kLanes independent partial sums accumulated in lane
// order, reduced by a fixed halving tree, tail added last. The order is a
// function of n alone — never the thread count or the runtime switch — so
// fast_math results are deterministic, just not equal to the exact serial
// double-precision path.
inline float DotFast(const float* __restrict a, const float* __restrict b,
                     int64_t n) {
  float acc[kLanes] = {};
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) acc[l] += a[i + l] * b[i + l];
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i] * b[i];
  for (int w = kLanes / 2; w > 0; w /= 2) {
    for (int l = 0; l < w; ++l) acc[l] += acc[l + w];
  }
  return acc[0] + tail;
}

}  // namespace skipnode::simd

#endif  // SKIPNODE_BASE_SIMD_H_
