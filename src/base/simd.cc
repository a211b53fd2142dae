// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "base/check.h"

namespace skipnode::simd {
namespace {

// -1 = not yet initialised from the environment; 0/1 = resolved.
std::atomic<int> g_enabled{-1};

}  // namespace

bool ParseEnabledEnv(const char* value) {
  if (value == nullptr || std::strcmp(value, "1") == 0) return true;
  if (std::strcmp(value, "0") == 0) return false;
  SKIPNODE_CHECK_MSG(false, "SKIPNODE_SIMD must be \"0\" or \"1\", got \"%s\"",
                     value);
  return true;  // Unreachable.
}

bool Enabled() {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    // Parsed lazily (not in a static initialiser) so tests can setenv first.
    state = ParseEnabledEnv(std::getenv("SKIPNODE_SIMD")) ? 1 : 0;
    g_enabled.store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void SetEnabled(bool enabled) {
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace skipnode::simd
