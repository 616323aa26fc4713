// Scrubber: the HDFS DataBlockScanner analogue.
//
// Each DataNode gets a staggered periodic task that verifies one stored
// block per tick through the real device model (a full checksum read paying
// real IO, contending with foreground traffic), so latent rot is found and
// repaired before a reader hits it. Scan order is a per-node cursor over
// the DataNode's replica table, which is kept sorted by block id: each tick
// takes the smallest id after the cursor (one binary search), wrapping
// around at the end.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rate_limiter.h"
#include "dfs/namenode.h"
#include "integrity/integrity_config.h"
#include "sim/periodic.h"
#include "sim/simulator.h"

namespace ignem {

struct ScrubberStats {
  std::uint64_t blocks_scanned = 0;
  std::uint64_t corrupt_found = 0;
  /// Scans issued while the node's primary device already had foreground
  /// requests in flight — the scrub-vs-foreground IO contention signal the
  /// metrics plane surfaces as a gauge (scrub.contention_ratio).
  std::uint64_t scans_contended = 0;
  /// Ticks skipped because the scrub-rate budget was exhausted; the cursor
  /// does not advance, so the block is rescanned next interval.
  std::uint64_t scans_throttled = 0;
};

class Scrubber {
 public:
  /// Constructing schedules the periodic tasks immediately (one per
  /// registered DataNode, offsets staggered like the failure detector's
  /// heartbeats so scrub IO never lands on every node at once).
  Scrubber(Simulator& sim, NameNode& namenode, IntegrityConfig config);

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  void stop();

  const ScrubberStats& stats() const { return stats_; }
  /// Adds every ScrubberStats field to `counters` under its report name
  /// (scrub.*), and sets two gauges: scrub.contention_ratio (contended
  /// scans per scan) and scrub.coverage (scans per stored replica; > 1
  /// means every replica was visited at least once on average).
  void add_counters(std::map<std::string, std::uint64_t>& counters,
                    std::map<std::string, double>& gauges) const;

 private:
  void tick(std::size_t index);

  Simulator& sim_;
  NameNode& namenode_;
  std::unique_ptr<RateLimiter> limiter_;  // set when scrub_rate_limit > 0
  std::vector<std::unique_ptr<PeriodicTask>> tasks_;
  std::vector<BlockId> cursors_;  // last block scanned per node
  ScrubberStats stats_;
};

}  // namespace ignem
