#!/usr/bin/env bash
# Full correctness gate: build the whole tree with AddressSanitizer +
# UndefinedBehaviorSanitizer and run the complete test suite.
#
#   scripts/check.sh            # sanitized build + all tests
#   scripts/check.sh tier1      # sanitized build + fast tier only
#   scripts/check.sh tiering    # two-tier pool accounting and pool-residency
#                               # checks
#   scripts/check.sh kernel     # event-queue + bandwidth differential suite
#   scripts/check.sh metrics    # metrics-plane suite (instruments, RunReport
#                               # determinism and coverage, memory footprint)
#   scripts/check.sh chaos      # randomized fault + partition sweeps
#   scripts/check.sh integrity  # corruption, scrubbing and repair suite
#   scripts/check.sh scale      # partition chaos sweep on 128 nodes
#
# Uses a dedicated build directory (build-check) so the regular build stays
# untouched. See docs/TRACING.md for the determinism/invariant suites this
# gates on.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-check
LABEL="${1:-}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIGNEM_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j "$(nproc)"

CTEST_ARGS=(--output-on-failure --no-tests=error -j "$(nproc)")
if [[ -n "$LABEL" ]]; then
  CTEST_ARGS+=(-L "$LABEL")
fi

ctest --test-dir "$BUILD_DIR" "${CTEST_ARGS[@]}"
echo "check.sh: all tests passed under ASan/UBSan"
