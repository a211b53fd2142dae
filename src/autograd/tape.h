// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Minimal reverse-mode automatic differentiation. A Tape records a forward
// computation as a sequence of nodes; Backward() replays it in reverse,
// accumulating exact gradients into Parameters. One Tape is built per
// training step and thrown away (define-by-run, like the frameworks the
// paper's experiments used).
//
// Usage:
//   Parameter w("w", Matrix::GlorotUniform(16, 4, rng));
//   Tape tape;
//   Var x = tape.Constant(features);
//   Var h = tape.Relu(tape.MatMul(x, tape.Leaf(w)));
//   Var loss = tape.SoftmaxCrossEntropy(h, labels, train_nodes);
//   tape.Backward(loss);          // w.grad now holds dLoss/dw
//
// All ops check shapes; sparse multiplication takes the adjacency by
// shared_ptr so per-epoch sampled adjacencies (DropEdge) stay alive for the
// backward pass.
//
// Gradient pruning: every node carries a `needs_grad` bit decided when it is
// recorded — true for Leaf, false for Constant, and the OR of its inputs for
// every other op. A node with no Leaf ancestor records no backward closure,
// and backward closures skip the gradient of any grad-free parent. So the
// first layer's MatMul never computes the N x F gradient of the constant
// input features. Nothing that feeds a Parameter changes, so pruning is
// bitwise invisible in trained weights. Var::grad() on a grad-free node is a
// zero matrix of the node's shape.

#ifndef SKIPNODE_AUTOGRAD_TAPE_H_
#define SKIPNODE_AUTOGRAD_TAPE_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "sparse/csr_matrix.h"
#include "tensor/matrix.h"

namespace skipnode {

// A named trainable tensor with a persistent gradient accumulator. Owned by
// the model; Tapes only reference it.
struct Parameter {
  Parameter(std::string name_in, Matrix value_in)
      : name(std::move(name_in)),
        value(std::move(value_in)),
        grad(value.rows(), value.cols()) {}

  void ZeroGrad() { grad.SetZero(); }

  std::string name;
  Matrix value;
  Matrix grad;
};

class Tape;

// Handle to a node on a Tape. Cheap to copy; invalid once the Tape dies.
class Var {
 public:
  Var() : tape_(nullptr), index_(-1) {}

  const Matrix& value() const;
  // Gradient of the last Backward() w.r.t. this node. Zeros if the backward
  // pass never reached it, which includes every grad-free node (see the
  // file comment): constants and anything computed only from constants.
  const Matrix& grad() const;
  // Whether a gradient flowing into this node can reach a Parameter (see
  // the file comment). Grad-free nodes are never differentiated.
  bool needs_grad() const;
  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }
  bool valid() const { return tape_ != nullptr; }

 private:
  friend class Tape;
  Var(Tape* tape, int index) : tape_(tape), index_(index) {}

  Tape* tape_;
  int index_;
};

// Records a forward pass and differentiates it. Not reusable after
// Backward(); build a fresh Tape per step.
//
// Every buffer a node holds (value, gradient, and op workspace such as a
// Dropout mask) is drawn from the global MatrixPool (tensor/pool.h) and
// returned to it when the tape dies — the per-step allocation churn of the
// one-Tape-per-step design becomes pool hits after the first step, and the
// pool's retention is bounded by one step's working set. Pooling is
// invisible to results: recycled buffers are re-zeroed, so they are
// indistinguishable from fresh ones.
class Tape {
 public:
  Tape() = default;
  ~Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // --- Graph inputs --------------------------------------------------------

  // Leaf node bound to a trainable parameter; Backward() accumulates into
  // `parameter.grad`. The parameter must outlive the tape.
  Var Leaf(Parameter& parameter);
  // Leaf with no gradient (inputs, labels-as-features, etc.): grad-free, so
  // ops over constants only record no backward closure. The copy is staged
  // in a pool-acquired buffer so repeated steps recycle it instead of
  // re-allocating feature-sized matrices each epoch.
  Var Constant(const Matrix& value);
  // Constant holding rows `rows` of `value` (a sampled minibatch's input
  // frontier), gathered straight into a pool-acquired buffer.
  Var ConstantRows(const Matrix& value, const std::vector<int>& rows);
  // Grad-free rows x cols zeros.
  Var Zeros(int rows, int cols);

  // --- Core ops ------------------------------------------------------------

  Var MatMul(Var a, Var b);
  // Sparse (adjacency) times dense. Gradient flows to `x` only.
  Var SpMM(std::shared_ptr<const CsrMatrix> a, Var x);
  // Fused SpMM + RowSelect (DESIGN §10): row r of the output is
  //   skip_mask[r] ? pre.row(r) : (a * x).row(r)          (Eq. 4)
  // and skipped rows of a*x are never computed — the work SkipNode's
  // sampling is supposed to save. Backward: dX += a^T * (g with skipped
  // rows zeroed), and skipped rows of g pass straight through to `pre`.
  // Bitwise identical, forward and backward, to
  //   RowSelect(skip_mask, pre, SpMM(a, x))
  // at any thread count and any mask (each computed row runs in the same
  // serial order as the full kernel).
  Var SpMMRowSelect(std::shared_ptr<const CsrMatrix> a, Var x, Var pre,
                    std::vector<uint8_t> skip_mask);
  Var Add(Var a, Var b);
  Var Sub(Var a, Var b);
  // x + bias broadcast over rows; bias is 1 x cols.
  Var AddRowBroadcast(Var x, Var bias);
  // alpha * a + beta * b.
  Var Axpby(Var a, Var b, float alpha, float beta);
  Var Scale(Var a, float s);
  Var Relu(Var a);
  // Inverted dropout; identity when `training` is false. A grad-free input
  // still consumes its draws, so the Rng stream never depends on pruning,
  // but keeps no mask: nothing runs its backward, so the draws scale the
  // input directly.
  Var Dropout(Var a, float rate, bool training, Rng& rng);
  // Horizontal concatenation (JKNet).
  Var ConcatCols(const std::vector<Var>& parts);
  // sum_k coefficients[0][k] * parts[k], coefficients a 1 x K (learnable)
  // node (GPRGNN's propagation weights).
  Var LinearCombination(const std::vector<Var>& parts, Var coefficients);
  // Rows of `x` selected by `rows` (link-prediction endpoint lookup).
  Var GatherRows(Var x, std::vector<int> rows);
  // Graph-attention aggregation (Velickovic et al. 2018). `pattern` fixes
  // the sparsity (it should contain self-loops; its values are ignored),
  // `h` is the already-transformed node matrix W x, and `score_src` /
  // `score_dst` are N x 1 per-node attention scores. Computes
  //   e_ij   = LeakyReLU(score_src[i] + score_dst[j], leaky_slope)
  //   alpha_i = softmax over i's neighbours of e_i*
  //   out_i  = sum_j alpha_ij h_j.
  // Gradients flow to h and both score vectors.
  Var GatAggregate(std::shared_ptr<const CsrMatrix> pattern, Var h,
                   Var score_src, Var score_dst, float leaky_slope = 0.2f);
  // Per-row dot products of a and b -> N x 1 (dot-product decoder).
  Var RowDots(Var a, Var b);

  // --- The SkipNode combine -------------------------------------------------
  // out.row(i) = skip_mask[i] ? skipped.row(i) : convolved.row(i)   (Eq. 4).
  // Gradients route to `skipped` on masked rows and to `convolved` elsewhere,
  // which is exactly how SkipNode lets gradients bypass deep stacks.
  Var RowSelect(const std::vector<uint8_t>& skip_mask, Var skipped,
                Var convolved);

  // --- Normalisation --------------------------------------------------------
  // PairNorm (Zhao & Akoglu 2020), scale-individually variant:
  //   c = X - mean_row(X);  out_i = s * c_i / ||c_i||_2.
  Var PairNorm(Var x, float scale, float epsilon = 1e-6f);

  // --- Losses (return 1x1 scalars) ------------------------------------------

  // Mean cross-entropy over `nodes` between softmax(logits.row(node)) and
  // labels[node]. Also exposes the raw dL/dlogits via grad() after Backward.
  Var SoftmaxCrossEntropy(Var logits, const std::vector<int>& labels,
                          const std::vector<int>& nodes);
  // Mean binary cross-entropy with logits; `logits` is N x 1, targets in
  // {0, 1}.
  Var BceWithLogits(Var logits, const std::vector<float>& targets);
  // Mean squared error between two equal-shape nodes (GRAND consistency).
  Var MseLoss(Var a, Var b);

  // --- Differentiation ------------------------------------------------------

  // Seeds d(loss)/d(loss) = 1 and accumulates gradients for every node and
  // every Parameter leaf reached. `loss` must be 1x1. Call at most once.
  void Backward(Var loss);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Opt-in to the reassociated fast-math dot kernel for MatMul's
  // transpose-B (k-reduction) paths, forward and backward (DESIGN §14).
  // Off (the default) keeps the exact double-accumulation dot. Set before
  // recording ops; flipping it changes which floats MatMul produces.
  void set_fast_math(bool fast_math) { fast_math_ = fast_math; }
  bool fast_math() const { return fast_math_; }

  // Mutable access to a node's forward value, for the fault-injection layer
  // (base/fault.h): corrupting an activation *before* the ops consuming it
  // are recorded propagates the fault exactly as a kernel bug would. Not for
  // normal modelling code — ops must build values through the tape.
  Matrix& MutableValue(Var v);

 private:
  friend class Var;

  struct Node {
    Matrix value;
    Matrix grad;        // Allocated lazily by EnsureGrad().
    // Op workspace the backward closure reads (the Dropout mask); a pool
    // buffer released with the tape like value and grad.
    Matrix saved;
    bool grad_ready = false;
    // Whether any Leaf is an ancestor, i.e. whether a gradient flowing into
    // this node can reach a Parameter. Fixed at record time.
    bool needs_grad = false;
    // Propagates this node's grad into the grads of its parents that need
    // one (and into the Parameter grad for leaves). Null for grad-free
    // nodes.
    std::function<void()> backward;
  };

  Node& node(int index) { return *nodes_[index]; }
  const Node& node(int index) const { return *nodes_[index]; }
  // Records a node; `value` must be a pool buffer (AcquireOutput or
  // AcquireCopy), since ~Tape releases it to the pool.
  Var Emplace(Matrix value, bool needs_grad);
  // Whether an op over `inputs` needs a gradient: the OR of theirs.
  static bool AnyNeedsGrad(std::initializer_list<Var> inputs);
  // Installs `backward` on `out` unless `out` is grad-free, in which case
  // the closure is dropped and Backward() treats the node as a constant.
  void SetBackward(Var out, std::function<void()> backward);
  // Ensures `grad` is allocated (zeroed) and returns it.
  Matrix& EnsureGrad(int index);
  // The grad a backward closure accumulates into for parent `index`: the
  // lazily allocated buffer, or null when the parent is grad-free and its
  // gradient would never be read.
  Matrix* ParentGrad(int index);
  // Zeroed rows x cols output buffer, drawn from the workspace pool.
  Matrix AcquireOutput(int rows, int cols);
  // Pool-acquired copy of `value`.
  Matrix AcquireCopy(const Matrix& value);

  std::vector<std::unique_ptr<Node>> nodes_;
  bool backward_done_ = false;
  bool fast_math_ = false;
};

}  // namespace skipnode

#endif  // SKIPNODE_AUTOGRAD_TAPE_H_
