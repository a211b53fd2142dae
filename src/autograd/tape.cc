// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "autograd/tape.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "tensor/ops.h"
#include "tensor/pool.h"

namespace skipnode {

// Every buffer the tape owns came from the pool and goes back to it; the
// next step's tape (same model, same graph) re-acquires the same sizes.
Tape::~Tape() {
  MatrixPool& pool = GlobalMatrixPool();
  for (auto& node : nodes_) {
    pool.Release(std::move(node->value));
    if (node->grad_ready) pool.Release(std::move(node->grad));
    pool.Release(std::move(node->saved));
  }
}

const Matrix& Var::value() const {
  SKIPNODE_CHECK(tape_ != nullptr);
  return tape_->node(index_).value;
}

const Matrix& Var::grad() const {
  SKIPNODE_CHECK(tape_ != nullptr);
  // Lazily materialise a zero gradient for nodes the backward pass never
  // reached (grad-free nodes included) so callers can treat grad()
  // uniformly.
  return tape_->EnsureGrad(index_);
}

bool Var::needs_grad() const {
  SKIPNODE_CHECK(tape_ != nullptr);
  return tape_->node(index_).needs_grad;
}

Var Tape::Emplace(Matrix value, bool needs_grad) {
  auto node = std::make_unique<Node>();
  node->value = std::move(value);
  node->needs_grad = needs_grad;
  nodes_.push_back(std::move(node));
  return Var(this, static_cast<int>(nodes_.size()) - 1);
}

bool Tape::AnyNeedsGrad(std::initializer_list<Var> inputs) {
  for (const Var& v : inputs) {
    if (v.needs_grad()) return true;
  }
  return false;
}

void Tape::SetBackward(Var out, std::function<void()> backward) {
  Node& n = node(out.index_);
  if (n.needs_grad) n.backward = std::move(backward);
}

Matrix& Tape::EnsureGrad(int index) {
  Node& n = node(index);
  if (!n.grad_ready) {
    n.grad = GlobalMatrixPool().Acquire(n.value.rows(), n.value.cols());
    n.grad_ready = true;
  }
  return n.grad;
}

Matrix* Tape::ParentGrad(int index) {
  return node(index).needs_grad ? &EnsureGrad(index) : nullptr;
}

Matrix Tape::AcquireOutput(int rows, int cols) {
  return GlobalMatrixPool().Acquire(rows, cols);
}

Matrix Tape::AcquireCopy(const Matrix& value) {
  Matrix copy = AcquireOutput(value.rows(), value.cols());
  std::copy_n(value.data(), value.size(), copy.data());
  return copy;
}

Var Tape::Leaf(Parameter& parameter) {
  Var v = Emplace(AcquireCopy(parameter.value), /*needs_grad=*/true);
  Parameter* param = &parameter;
  Tape* tape = this;
  const int index = v.index_;
  SetBackward(v, [tape, param, index]() {
    const Matrix& g = tape->node(index).grad;
    SKIPNODE_CHECK(g.SameShape(param->grad));
    AddScaled(g, 1.0f, param->grad);
  });
  return v;
}

Var Tape::Constant(const Matrix& value) {
  return Emplace(AcquireCopy(value), /*needs_grad=*/false);
}

Var Tape::ConstantRows(const Matrix& value, const std::vector<int>& rows) {
  Matrix gathered = AcquireOutput(static_cast<int>(rows.size()), value.cols());
  GatherRowsInto(value, rows, gathered);
  return Emplace(std::move(gathered), /*needs_grad=*/false);
}

Var Tape::Zeros(int rows, int cols) {
  return Emplace(AcquireOutput(rows, cols), /*needs_grad=*/false);
}

Matrix& Tape::MutableValue(Var v) {
  SKIPNODE_CHECK(v.tape_ == this);
  return node(v.index_).value;
}

void Tape::Backward(Var loss) {
  SKIPNODE_CHECK(loss.tape_ == this);
  SKIPNODE_CHECK(!backward_done_);
  SKIPNODE_CHECK(loss.rows() == 1 && loss.cols() == 1);
  backward_done_ = true;
  EnsureGrad(loss.index_)(0, 0) = 1.0f;
  for (int i = loss.index_; i >= 0; --i) {
    Node& n = node(i);
    if (!n.grad_ready || !n.backward) continue;
    n.backward();
  }
}

}  // namespace skipnode
