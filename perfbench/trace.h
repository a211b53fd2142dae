// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The traced run (--trace 1): per-layer metrics for one workload. It trains
// once untraced through TrainNodeClassifier, then replays the same training
// step by step from public layer calls (Model::Forward / ForwardSampled,
// Tape::SoftmaxCrossEntropy, Tape::Backward, Optimizer::ZeroGrad + Step,
// NeighborSampler::SampleBlocks, EvaluateLogits), timing each call from
// here with telemetry on for the kernel counters. The replay must end on
// the same parameter digest as the untraced run, so the trace provably
// measured the training the end-to-end metrics time. Tracing overhead is the
// traced epoch median minus the untraced one. It then serves the trained
// model: untraced for the windowed p99 and the goodput ladder, traced at the
// nominal rate for the serve layer. Nothing is instrumented inside the
// library.

#ifndef SKIPNODE_PERFBENCH_TRACE_H_
#define SKIPNODE_PERFBENCH_TRACE_H_

#include <cstdint>

#include "workloads.h"

namespace perfbench {

// Prints the per-layer result line; returns the process exit code.
int RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // SKIPNODE_PERFBENCH_TRACE_H_
