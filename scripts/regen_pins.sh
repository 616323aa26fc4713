#!/usr/bin/env bash
# Re-pin tool: shows what the working tree does to every pinned scenario
# compared with a base commit, then prints fresh pin constants and rewrites
# the golden trace.
#
#   scripts/regen_pins.sh <base-ref>
#
# 1. Builds the pin dumper (tests/pin_dump.cc with tests/pin_scenarios.cc,
#    through scripts/pins/CMakeLists.txt) twice: against <base-ref>'s src/,
#    extracted with `git archive`, and against the working tree's src/.
# 2. Dumps the 32 pinned scenarios (7 kernel_regression_test runs, the
#    golden quickstart, 24 liveness_anchor_test runs) from both builds and
#    compares them. Each dump records its build's event-type names, and the
#    comparison maps the base's type numbers onto the working tree's by
#    name, so an enum change between the two still compares. Per scenario:
#    the old and new pin values, the TraceDiff first divergence, the same
#    comparison with the events of one-sided types (those only one build
#    has) dropped and seq ignored, and the per-job end-time deltas (jobs
#    moved, max and mean |d end| in seconds). A summary table, headed by
#    the one-sided types it dropped, closes the section.
# 3. Builds the working tree's pin tests and prints fresh constants through
#    IGNEM_PRINT_KERNEL_HASHES=1 and IGNEM_PRINT_ANCHOR_DIGESTS=1, then
#    rewrites tests/golden/quickstart_trace.jsonl (IGNEM_REGEN_GOLDEN=1).
#
# The report goes to stdout, build logs to stderr. Build trees live under
# $PINS_BUILD_DIR (default build-pins/). A moved pin is not a failure — the
# tests hold the pins; the tool exits non-zero only when a step fails.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/regen_pins.sh <base-ref>" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
BASE_SHA="$(git rev-parse --verify "$1^{commit}")"
mkdir -p "${PINS_BUILD_DIR:-build-pins}"
WORK="$(cd "${PINS_BUILD_DIR:-build-pins}" && pwd)"
JOBS="$(nproc)"
GENERATOR=()
if command -v ninja >/dev/null; then GENERATOR=(-G Ninja); fi

# The base's simulator sources, re-extracted only when the base changes.
if [[ "$(cat "$WORK/base-src/.sha" 2>/dev/null)" != "$BASE_SHA" ]]; then
  rm -rf "$WORK/base-src"
  mkdir -p "$WORK/base-src"
  git archive "$BASE_SHA" src | tar -x -C "$WORK/base-src"
  echo "$BASE_SHA" > "$WORK/base-src/.sha"
fi

build_dumper() {  # <build dir> <src dir>
  cmake -S scripts/pins -B "$1" "${GENERATOR[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIGNEM_SRC_DIR="$2" >&2
  cmake --build "$1" -j "$JOBS" --target pin_dump >&2
}
build_dumper "$WORK/dumper-base" "$WORK/base-src/src"
build_dumper "$WORK/dumper-head" "$PWD/src"

rm -rf "$WORK/dump-base" "$WORK/dump-head"
mkdir -p "$WORK/dump-base" "$WORK/dump-head"
"$WORK/dumper-base/pin_dump" dump "$WORK/dump-base" >&2
"$WORK/dumper-head/pin_dump" dump "$WORK/dump-head" >&2

echo "# Pinned scenarios: $1 ($BASE_SHA) -> working tree"
echo
"$WORK/dumper-head/pin_dump" compare "$WORK/dump-base" "$WORK/dump-head"

cmake -S . -B "$WORK/tree" "${GENERATOR[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$WORK/tree" -j "$JOBS" --target kernel_regression_test \
  liveness_anchor_test golden_trace_test >&2

echo
echo "# Fresh kernel_regression_test constants (IGNEM_PRINT_KERNEL_HASHES=1)"
IGNEM_PRINT_KERNEL_HASHES=1 "$WORK/tree/tests/kernel_regression_test" \
  --gtest_filter='KernelRegression.TraceHashesMatchPreRewriteKernel:KernelRegression.GoogleTraceHashesMatchPreTieringStorage' |
  grep 'RunMode::'

echo
echo "# Fresh liveness_anchor_test constants (IGNEM_PRINT_ANCHOR_DIGESTS=1)"
IGNEM_PRINT_ANCHOR_DIGESTS=1 "$WORK/tree/tests/liveness_anchor_test" |
  grep '^    {{'

echo
echo "# Golden trace rewritten (IGNEM_REGEN_GOLDEN=1)"
IGNEM_REGEN_GOLDEN=1 "$WORK/tree/tests/golden_trace_test" \
  --gtest_filter=GoldenTrace.QuickstartScenarioMatchesGolden >&2
git diff --stat -- tests/golden/quickstart_trace.jsonl
