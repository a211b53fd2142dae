// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "autograd/tape.h"

#include <cmath>
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "base/telemetry.h"
#include "tensor/ops.h"
#include "testing/coo_matrix.h"

namespace skipnode {
namespace {

TEST(TapeTest, ConstantHoldsValue) {
  Tape tape;
  Var c = tape.Constant(Matrix(1, 2, {3, 4}));
  EXPECT_FLOAT_EQ(c.value().at(0, 1), 4.0f);
  EXPECT_EQ(c.rows(), 1);
  EXPECT_EQ(c.cols(), 2);
}

TEST(TapeTest, LeafReflectsParameterValue) {
  Rng rng(1);
  Parameter w("w", Matrix::Random(2, 2, rng));
  Tape tape;
  Var leaf = tape.Leaf(w);
  EXPECT_LT(MaxAbsDiff(leaf.value(), w.value), 1e-7f);
}

TEST(TapeTest, BackwardThroughScaleIsExact) {
  // loss = mse(2 * w, 0) = mean(4 w^2); dloss/dw = 8 w / size.
  Parameter w("w", Matrix(1, 2, {1.0f, -3.0f}));
  Tape tape;
  Var out = tape.Scale(tape.Leaf(w), 2.0f);
  Var loss = tape.MseLoss(out, tape.Constant(Matrix(1, 2)));
  EXPECT_FLOAT_EQ(loss.value()(0, 0), (4.0f + 36.0f) / 2.0f);
  w.ZeroGrad();
  tape.Backward(loss);
  EXPECT_NEAR(w.grad.at(0, 0), 8.0f * 1.0f / 2.0f, 1e-5f);
  EXPECT_NEAR(w.grad.at(0, 1), 8.0f * -3.0f / 2.0f, 1e-5f);
}

TEST(TapeTest, GradientAccumulatesWhenVarReused) {
  // loss = mse(w + w, 0): gradient doubles relative to a single use.
  Parameter w("w", Matrix(1, 1, {2.0f}));
  Tape tape;
  Var leaf = tape.Leaf(w);
  Var doubled = tape.Add(leaf, leaf);
  Var loss = tape.MseLoss(doubled, tape.Constant(Matrix(1, 1)));
  w.ZeroGrad();
  tape.Backward(loss);
  // d/dw (2w)^2 = 8w = 16.
  EXPECT_NEAR(w.grad.at(0, 0), 16.0f, 1e-5f);
}

TEST(TapeTest, GradAccumulatesAcrossTapes) {
  Parameter w("w", Matrix(1, 1, {1.0f}));
  w.ZeroGrad();
  for (int i = 0; i < 3; ++i) {
    Tape tape;
    Var loss = tape.MseLoss(tape.Leaf(w), tape.Constant(Matrix(1, 1)));
    tape.Backward(loss);
  }
  // Each pass adds 2w = 2.
  EXPECT_NEAR(w.grad.at(0, 0), 6.0f, 1e-5f);
}

TEST(TapeTest, UnusedBranchGetsZeroGrad) {
  Parameter used("used", Matrix(1, 1, {1.0f}));
  Parameter unused("unused", Matrix(1, 1, {1.0f}));
  Tape tape;
  Var a = tape.Leaf(used);
  tape.Leaf(unused);  // On tape, not connected to the loss.
  Var loss = tape.MseLoss(a, tape.Constant(Matrix(1, 1)));
  used.ZeroGrad();
  unused.ZeroGrad();
  tape.Backward(loss);
  EXPECT_NE(used.grad.at(0, 0), 0.0f);
  EXPECT_EQ(unused.grad.at(0, 0), 0.0f);
}

TEST(TapeTest, MatMulChainMatchesManualDerivative) {
  // loss = mse(x W, y). dL/dW = 2/size * x^T (xW - y).
  Rng rng(2);
  Matrix x_val = Matrix::Random(4, 3, rng);
  Matrix y_val = Matrix::Random(4, 2, rng);
  Parameter w("w", Matrix::Random(3, 2, rng));

  Tape tape;
  Var out = tape.MatMul(tape.Constant(x_val), tape.Leaf(w));
  Var loss = tape.MseLoss(out, tape.Constant(y_val));
  w.ZeroGrad();
  tape.Backward(loss);

  Matrix residual = Sub(MatMul(x_val, w.value), y_val);
  Matrix expected = Scale(MatMulTransposeA(x_val, residual),
                          2.0f / static_cast<float>(residual.size()));
  EXPECT_LT(MaxAbsDiff(w.grad, expected), 1e-4f);
}

TEST(TapeTest, DropoutEvalModeIsIdentity) {
  Rng rng(3);
  Tape tape;
  Matrix x = Matrix::Random(5, 5, rng);
  Var v = tape.Constant(x);
  Var out = tape.Dropout(v, 0.5f, /*training=*/false, rng);
  EXPECT_LT(MaxAbsDiff(out.value(), x), 1e-7f);
}

TEST(TapeTest, DropoutTrainingZeroesAndRescales) {
  Rng rng(4);
  Tape tape;
  Matrix x = Matrix::Ones(100, 100);
  Var out = tape.Dropout(tape.Constant(x), 0.4f, /*training=*/true, rng);
  int zeros = 0;
  double total = 0.0;
  for (int64_t i = 0; i < out.value().size(); ++i) {
    const float v = out.value().data()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5f);
    }
    total += v;
  }
  EXPECT_NEAR(zeros / 10000.0, 0.4, 0.03);
  // Inverted dropout keeps the expectation.
  EXPECT_NEAR(total / 10000.0, 1.0, 0.05);
}

TEST(TapeTest, RowSelectTakesMaskedRowsFromSkipPath) {
  Tape tape;
  Var skipped = tape.Constant(Matrix(3, 2, {1, 1, 2, 2, 3, 3}));
  Var convolved = tape.Constant(Matrix(3, 2, {9, 9, 8, 8, 7, 7}));
  Var out = tape.RowSelect({1, 0, 1}, skipped, convolved);
  EXPECT_LT(MaxAbsDiff(out.value(), Matrix(3, 2, {1, 1, 8, 8, 3, 3})),
            1e-7f);
}

TEST(TapeTest, SpmmMatchesDense) {
  Rng rng(5);
  auto sparse = std::make_shared<CsrMatrix>(
      testing::CsrFromCoo(3, 3, {{0, 1}, {1, 0}, {2, 2}}, {2, 2, 1}));
  Matrix x = Matrix::Random(3, 4, rng);
  Tape tape;
  Var out = tape.SpMM(sparse, tape.Constant(x));
  EXPECT_LT(MaxAbsDiff(out.value(), MatMul(sparse->ToDense(), x)), 1e-5f);
}

TEST(TapeTest, SoftmaxCrossEntropyOfUniformLogitsIsLogC) {
  Tape tape;
  Var logits = tape.Constant(Matrix(4, 5));  // All-zero logits.
  const std::vector<int> labels = {0, 1, 2, 3};
  Var loss = tape.SoftmaxCrossEntropy(logits, labels, {0, 1, 2, 3});
  EXPECT_NEAR(loss.value()(0, 0), std::log(5.0f), 1e-5f);
}

TEST(TapeTest, BceWithLogitsAtZeroIsLogTwo) {
  Tape tape;
  Var logits = tape.Constant(Matrix(3, 1));
  Var loss = tape.BceWithLogits(logits, {1.0f, 0.0f, 1.0f});
  EXPECT_NEAR(loss.value()(0, 0), std::log(2.0f), 1e-5f);
}

TEST(TapeTest, LinearCombinationValue) {
  Tape tape;
  Parameter coeff("c", Matrix(1, 2, {0.25f, 0.75f}));
  Var a = tape.Constant(Matrix(1, 1, {4.0f}));
  Var b = tape.Constant(Matrix(1, 1, {8.0f}));
  Var out = tape.LinearCombination({a, b}, tape.Leaf(coeff));
  EXPECT_NEAR(out.value()(0, 0), 7.0f, 1e-6f);
}

// --- Gradient pruning (tape.h: needs_grad) ----------------------------------

// loss = mse(Dropout(input) * w, target) with the input recorded either as a
// Constant (pruned: no gradient for it) or as a Leaf (unpruned). Returns
// w.grad; the Dropout mask comes from the same seed either way.
Matrix FirstLayerWeightGrad(bool input_is_leaf, Parameter& input,
                            Parameter& w, const Matrix& target) {
  Rng rng(21);
  w.ZeroGrad();
  input.ZeroGrad();
  Tape tape;
  Var x = input_is_leaf ? tape.Leaf(input) : tape.Constant(input.value);
  Var h = tape.MatMul(tape.Dropout(x, 0.5f, /*training=*/true, rng),
                      tape.Leaf(w));
  tape.Backward(tape.MseLoss(h, tape.Constant(target)));
  return w.grad;
}

class TapePruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTelemetryEnabled(true);
    ResetTelemetry();
  }
  void TearDown() override {
    ResetTelemetry();
    SetTelemetryEnabled(false);
  }
  static int64_t Calls(const char* name) {
    const TelemetrySnapshot snapshot = SnapshotTelemetry();
    const MetricStat* stat = snapshot.Find(name);
    return stat == nullptr ? 0 : stat->count;
  }
};

TEST_F(TapePruningTest, ConstantInputGivesBitwiseSameWeightGrad) {
  Rng rng(20);
  Parameter input("x", Matrix::Random(40, 30, rng));
  Parameter w("w", Matrix::Random(30, 8, rng));
  const Matrix target = Matrix::Random(40, 8, rng);
  const Matrix unpruned = FirstLayerWeightGrad(true, input, w, target);
  ASSERT_EQ(Calls("tensor.gemm_tb"), 1);  // dX = g * W^T, for the Leaf.
  ResetTelemetry();
  const Matrix pruned = FirstLayerWeightGrad(false, input, w, target);
  EXPECT_EQ(Calls("tensor.gemm_tb"), 0);
  EXPECT_EQ(Calls("tensor.gemm_ta"), 1);  // dW = X^T * g still runs.
  ASSERT_TRUE(pruned.SameShape(unpruned));
  EXPECT_EQ(std::memcmp(pruned.data(), unpruned.data(),
                        sizeof(float) * static_cast<size_t>(pruned.size())),
            0);
}

TEST_F(TapePruningTest, ConstantGradIsZeroMatrixOfItsShape) {
  Rng rng(22);
  Parameter w("w", Matrix::Random(6, 3, rng));
  Tape tape;
  Var x = tape.Constant(Matrix::Random(5, 6, rng));
  Var loss = tape.MseLoss(tape.MatMul(x, tape.Leaf(w)),
                          tape.Constant(Matrix(5, 3)));
  EXPECT_FALSE(x.needs_grad());
  EXPECT_TRUE(loss.needs_grad());
  tape.Backward(loss);
  const Matrix& g = x.grad();
  ASSERT_EQ(g.rows(), 5);
  ASSERT_EQ(g.cols(), 6);
  for (int64_t i = 0; i < g.size(); ++i) EXPECT_EQ(g.data()[i], 0.0f);
}

TEST_F(TapePruningTest, AllConstantSubgraphRecordsNoBackward) {
  Rng rng(23);
  auto ring = std::make_shared<CsrMatrix>(testing::CsrFromCoo(
      4, 4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}, {0.5f, 0.5f, 0.5f, 0.5f}));
  Parameter w("w", Matrix::Random(3, 2, rng));
  const Matrix features = Matrix::Random(4, 3, rng);
  for (const bool features_are_leaf : {false, true}) {
    ResetTelemetry();
    Parameter input("x", features);
    Tape tape;
    Var x = features_are_leaf ? tape.Leaf(input) : tape.Constant(features);
    // Propagation, dropout and activation over the inputs alone: constant
    // unless the inputs are a Leaf.
    Var h = tape.Relu(
        tape.SpMM(ring, tape.Dropout(x, 0.5f, /*training=*/true, rng)));
    EXPECT_EQ(h.needs_grad(), features_are_leaf);
    // A recorded SpMM backward closure holds its own reference to the
    // adjacency; an unrecorded one leaves the test's the only one.
    EXPECT_EQ(ring.use_count(), features_are_leaf ? 2 : 1);
    Var loss = tape.MseLoss(tape.MatMul(h, tape.Leaf(w)),
                            tape.Constant(Matrix(4, 2)));
    tape.Backward(loss);
    // The sparse backward hop runs only when something upstream needs it.
    EXPECT_EQ(Calls("autograd.spmm_backward"), features_are_leaf ? 1 : 0);
    EXPECT_EQ(Calls("tensor.relu_backward"), features_are_leaf ? 1 : 0);
  }
}

}  // namespace
}  // namespace skipnode
