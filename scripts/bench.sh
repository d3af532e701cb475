#!/usr/bin/env bash
# Kernel-benchmark runner: executes the BM_Scan* scalar-vs-packed pairs in
# bench_kernels and emits the machine-readable BENCH_kernels.json perf
# baseline (schema documented in README "Kernel benchmarks").
#
# Usage:
#   scripts/bench.sh            # full sweep (M=64, D up to 8192) -> BENCH_kernels.json
#   scripts/bench.sh --smoke    # tiny dims, short runtime; keeps the JSON
#                               # emitter honest in CI without timing noise
#   scripts/bench.sh -o FILE    # write the JSON somewhere else
#
# Requires Google Benchmark (bench_kernels is skipped by CMake without it)
# and python3 for the JSON post-processing.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT=BENCH_kernels.json
MODE=full
# Scalar + dispatched packed + every per-tier PackedWords/AVX2/AVX512/NEON
# row this CPU registered, plus the BM_ScanBlockPacked/M/D/Q multi-query
# sweep behind the v3 block_speedup table and the BM_Cleanup{Rep1,Flip}
# rows of the pruned argmax.
FILTER='^BM_(Scan((Best|Dots)(Scalar|Packed[A-Za-z0-9]*)|BlockPacked)|Cleanup(Rep1|Flip))/'
BENCH_ARGS=()

while [ $# -gt 0 ]; do
  case "$1" in
    --smoke)
      MODE=smoke
      # Small dims only, and a short measurement window: the smoke run
      # exists to exercise the emitter end to end, not to produce numbers.
      FILTER='^BM_Scan((Best|Dots)(Scalar|Packed[A-Za-z0-9]*)/64/(63|256)|BlockPacked/64/256/(1|64))$'
      BENCH_ARGS+=(--benchmark_min_time=0.01)
      shift
      ;;
    -o)
      OUT=$2
      shift 2
      ;;
    *)
      echo "usage: scripts/bench.sh [--smoke] [-o FILE]" >&2
      exit 2
      ;;
  esac
done

BIN="$BUILD_DIR/bin/bench_kernels"
if [ ! -x "$BIN" ]; then
  # Explicit Release (the project default) so a fresh build dir always
  # passes the full-mode guard below, even with CMAKE_BUILD_TYPE inherited
  # from the environment.
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  if ! cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_kernels; then
    echo "bench.sh: building bench_kernels failed (see errors above;" \
         "if the target is unknown, Google Benchmark is not installed)" >&2
    exit 1
  fi
fi

# Guard against an unoptimized baseline: full-mode numbers are only
# meaningful from an optimized build. Smoke mode tolerates anything (its
# numbers are discarded) but still records the build type in the JSON.
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")
case "$MODE/$BUILD_TYPE" in
  full/Release | full/RelWithDebInfo | smoke/*) ;;
  *)
    echo "bench.sh: refusing a full run from a '$BUILD_TYPE' build dir" \
         "($BUILD_DIR) — configure Release or use --smoke" >&2
    exit 1
    ;;
esac

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# The ${arr[@]+...} form keeps `set -u` happy on bash < 4.4 when the
# array is empty (the default full mode adds no extra flags).
"$BIN" --benchmark_filter="$FILTER" --benchmark_format=json \
  ${BENCH_ARGS[@]+"${BENCH_ARGS[@]}"} > "$RAW"

python3 scripts/bench_json.py --mode "$MODE" --raw "$RAW" --out "$OUT" \
  --build-type "$BUILD_TYPE"
echo "wrote $OUT"
