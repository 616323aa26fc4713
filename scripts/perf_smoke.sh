#!/usr/bin/env bash
# Perf smoke gate: run bench_microkernel and fail if a machine-independent
# cost ratio grows more than 25% above the checked-in baseline
# (bench/baseline_microkernel.json).
#
#   scripts/perf_smoke.sh [build-dir]     # default: build
#
# Gated ratios (lower is better), each measured within one process so the
# host's absolute speed cancels out:
#   - event_churn_depth_growth: queue churn at 54k pending over 243 pending;
#   - bw_churn_stream_growth: bandwidth churn at 8 streams over 1 stream;
#   - scrub_cursor_growth: DataNode::next_block_after at 16,384 blocks per
#     node over 1,074 (a scan of the node's blocks grows ~50x, the sorted
#     table's binary search ~2.5x);
#   - placement_growth: NameNode::create_file per block at 2048 nodes over
#     128 (a scan of every node per pick grows 10-14x, the live-node
#     index's binary searches 1.2-1.6x);
#   - rm_heartbeat_growth: ResourceManager heartbeat at 2048 nodes with 226
#     queued requests over 128 nodes with 16 (a scan of the queue grows
#     4-6x, the indexed queue 0.8-1.3x);
#   - block_touch_growth: a page-in verify plus a read's replica choice at
#     16,384 blocks per node over 1,074, 512 nodes (a verify that searches
#     the replica table grows ~2.4x, the rot-mark probe ~0.9x).
# Takes the best of IGNEM_PERF_RUNS runs (default 3) so a noisy scheduler
# tick does not fail the gate; a real regression shows up in every run. The
# bench itself aborts if a warmed queue calls operator new or delete.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
RUNS="${IGNEM_PERF_RUNS:-3}"
BENCH="$BUILD_DIR/bench/bench_microkernel"
BASELINE=bench/baseline_microkernel.json

if [[ ! -x "$BENCH" ]]; then
  echo "perf_smoke.sh: $BENCH not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for ((i = 1; i <= RUNS; ++i)); do
  (cd "$WORK" && "$OLDPWD/$BENCH" > "run$i.log")
  mv "$WORK/BENCH_microkernel.json" "$WORK/result$i.json"
done

# Keep one run's full report next to the build for CI artifact upload.
cp "$WORK/result1.json" "$BUILD_DIR/BENCH_microkernel.json"

python3 - "$BASELINE" "$WORK" "$RUNS" <<'EOF'
import json, sys

baseline_path, work, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
baseline = json.load(open(baseline_path))

GATED = ["event_churn_depth_growth", "bw_churn_stream_growth",
         "scrub_cursor_growth", "placement_growth", "rm_heartbeat_growth",
         "block_touch_growth"]
TOLERANCE = 0.25

best = {}
for i in range(1, runs + 1):
    metrics = json.load(open(f"{work}/result{i}.json"))["metrics"]
    for key in GATED:
        best[key] = min(best.get(key, float("inf")), metrics[key])

failed = False
for key in GATED:
    ceiling = baseline[key] * (1.0 + TOLERANCE)
    status = "OK" if best[key] <= ceiling else "REGRESSED"
    failed |= best[key] > ceiling
    print(f"  {key:30s} best {best[key]:8.3f}  ceiling {ceiling:8.3f}  {status}")

if failed:
    print("perf_smoke.sh: a cost ratio grew >25% vs "
          f"{baseline_path}", file=sys.stderr)
    sys.exit(1)
print("perf_smoke.sh: cost ratios within 25% of baseline")
EOF
