#!/usr/bin/env bash
# CI-style gate: configure + build, run the full test suite, and (when
# clang-format is available) verify formatting of everything under src/.
#
# Every correctness check — unit tests, the qa oracles and properties (one
# ctest case each), the paper-conformance run, the ENERGY/SERVE golden
# profiles and the campaign resume — is a ctest case, so the modes below
# only change how that one suite is built or run.
#
# Usage: tools/check.sh [--asan] [--bench-smoke] [--simd] [build-dir]
#   --asan        build with AddressSanitizer + UndefinedBehaviorSanitizer
#                 (RelWithDebInfo, default build dir: build-asan) and run the
#                 full suite under them — including the obs/pool concurrency
#                 tests, which is where a data race would surface as UB, and
#                 the intrinsics TUs (kernels_{sse2,avx2,neon}.cpp), where
#                 UBSan checks the lane-math shifts/casts the vector paths
#                 lean on.
#   --bench-smoke after the suite, run the ~5 s perf-harness subset and fail
#                 on a >10% regression vs the committed BENCH_perf.json
#                 (heat2d_512 serial MCUPS and codec MB/s).
#   --simd        after the suite, re-run the full tier-1 suite once under
#                 GREENVIS_SIMD=scalar and once under GREENVIS_SIMD=auto
#                 (the dispatcher's best native path), then require
#                 `greenvis compare` output to be byte-for-byte identical
#                 across the two paths — the end-to-end statement of the
#                 scalar-vs-vector bit-identity contract.
set -euo pipefail

cd "$(dirname "$0")/.."

ASAN=0
BENCH_SMOKE=0
SIMD=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --asan) ASAN=1 ;;
    --bench-smoke) BENCH_SMOKE=1 ;;
    --simd) SIMD=1 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ "$ASAN" == 1 ]]; then
  BUILD_DIR="${1:-build-asan}"
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  CONFIGURE_ARGS=(
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS"
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
  )
else
  BUILD_DIR="${1:-build}"
  CONFIGURE_ARGS=()
fi

echo "== configure =="
cmake -B "$BUILD_DIR" -S . "${CONFIGURE_ARGS[@]}" >/dev/null

echo "== build =="
cmake --build "$BUILD_DIR" -j

echo "== test =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j

if [[ "$BENCH_SMOKE" == 1 ]]; then
  echo "== bench smoke =="
  if [[ "$ASAN" == 1 ]]; then
    # Sanitizer overhead makes throughput incomparable to the committed
    # baseline; run --bench-smoke against a plain build instead.
    echo "skipped: --bench-smoke is meaningless under sanitizers"
  else
    "$BUILD_DIR"/bench/bench_perf_harness --smoke --baseline=BENCH_perf.json
    # The async staging pipeline must stay runnable end to end from the CLI.
    "$BUILD_DIR"/tools/greenvis compare --case 1 --pipeline=async \
      --stage-buffers=2 >/dev/null
  fi
fi

if [[ "$SIMD" == 1 ]]; then
  echo "== simd differential =="
  # Tier-1 suite under the forced-scalar reference path, then again under
  # the auto-dispatched best native path. Both must be green: the vector
  # kernels are a pure performance substitution, never a semantic one.
  GREENVIS_SIMD=scalar ctest --test-dir "$BUILD_DIR" --output-on-failure -j
  GREENVIS_SIMD=auto ctest --test-dir "$BUILD_DIR" --output-on-failure -j
  # End-to-end bit-identity: the full pipeline comparison (solver sweeps,
  # codec round-trips, renders, energy model) must print byte-for-byte the
  # same report whichever ISA path executed it.
  SIMD_DIR="$BUILD_DIR"/simd-smoke
  rm -rf "$SIMD_DIR" && mkdir -p "$SIMD_DIR"
  for case_no in 1 2 3; do
    GREENVIS_SIMD=scalar "$BUILD_DIR"/tools/greenvis compare --case "$case_no" \
      > "$SIMD_DIR/compare_case${case_no}_scalar.txt"
    GREENVIS_SIMD=auto "$BUILD_DIR"/tools/greenvis compare --case "$case_no" \
      > "$SIMD_DIR/compare_case${case_no}_auto.txt"
    cmp "$SIMD_DIR/compare_case${case_no}_scalar.txt" \
        "$SIMD_DIR/compare_case${case_no}_auto.txt"
  done
  echo "simd differential: scalar and auto paths byte-identical"
fi

echo "== format =="
if command -v clang-format >/dev/null 2>&1; then
  find src -name '*.hpp' -o -name '*.cpp' | xargs clang-format --dry-run -Werror
  echo "clang-format clean"
else
  echo "clang-format not installed; skipping format check"
fi

echo "== all checks passed =="
