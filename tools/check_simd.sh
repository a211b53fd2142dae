#!/usr/bin/env bash
# Proves the exact-path SIMD contract (DESIGN §14) end to end: builds the
# tree once, trains the same SkipNode model at 1/4/8 threads with the
# runtime switch off (SKIPNODE_SIMD=0: every kernel call goes to its scalar
# reference in simd_ref.cc) and on (SKIPNODE_SIMD=1: the vectorized strips),
# and diffs the saved checkpoints bit for bit. Any reassociation smuggled
# into a vectorized kernel shows up as a byte difference here.
#
# Usage: tools/check_simd.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-simd
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

cmake -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target skipnode_train_cli \
  >/dev/null

# A SkipNode run touches every vectorized family: Gemm (dense layers), the
# masked + unmasked SpMM forward and transposed backward (fused propagation),
# the elementwise tape ops, and Adam. fast_math stays off — this is the
# exact path.
TRAIN_ARGS=(--dataset cora_like --model GCN --layers 4 --hidden 64
  --strategy skipnode-u --rate 0.5 --epochs 8 --seed 7)

for threads in 1 4 8; do
  export SKIPNODE_NUM_THREADS=$threads
  for simd in 0 1; do
    SKIPNODE_SIMD=$simd "$BUILD_DIR/tools/skipnode_train" "${TRAIN_ARGS[@]}" \
      --save-dir "$OUT/simd$simd-$threads" >/dev/null
  done
  diff -r "$OUT/simd0-$threads" "$OUT/simd1-$threads" || {
    echo "SIMD: reference and vectorized checkpoints differ at" \
      "$threads threads" >&2
    exit 1
  }
  echo "SIMD: bitwise identical at $threads threads (SKIPNODE_SIMD=0 vs 1)."
done

echo "SIMD: exact-path training is bitwise independent of the runtime switch."
