// IntegrityManager: the cluster-level half of corruption handling.
//
// DataNode checksum passes (reads, scrubs, migration verification) report
// corrupt copies here. For a stored replica the manager marks it in the
// NameNode — excluding it from every future replica choice — and hands the
// block to the ReplicationManager, which re-replicates from a verified
// source and invalidates the bad copy. For a cached copy it purges the copy
// (via the testbed-wired purger) and lets the clean disk replica keep
// serving. Reports are deduplicated against the NameNode's mark state, so
// concurrent detection by a reader and the scrubber repairs once.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "dfs/datanode.h"
#include "dfs/namenode.h"
#include "dfs/replication_manager.h"
#include "obs/trace_recorder.h"

namespace ignem {

struct IntegrityStats {
  std::uint64_t disk_corrupt_detected = 0;   ///< Distinct bad stored replicas.
  std::uint64_t cache_corrupt_detected = 0;  ///< Bad locked-memory copies.
  std::uint64_t cache_copies_purged = 0;     ///< Copies the purger dropped.
};

class IntegrityManager {
 public:
  /// Purges a node's cached copy of a block (and any Ignem slave state
  /// referencing it); returns true when a locked copy was actually dropped.
  using CachePurger = std::function<bool(NodeId, BlockId)>;

  IntegrityManager(NameNode& namenode, ReplicationManager& replication,
                   int target_replication)
      : namenode_(namenode),
        replication_(replication),
        target_replication_(target_replication) {}

  IntegrityManager(const IntegrityManager&) = delete;
  IntegrityManager& operator=(const IntegrityManager&) = delete;

  /// DataNode::CorruptionReporter entry point.
  void report(NodeId node, BlockId block, bool cached, CorruptionSource source);

  /// Fired after a stored replica is marked corrupt (the Ignem master's
  /// migration-reroute hook).
  void set_on_disk_corrupt(std::function<void(BlockId, NodeId)> hook) {
    on_disk_corrupt_ = std::move(hook);
  }
  void set_cache_purger(CachePurger purger) { purger_ = std::move(purger); }

  /// Emits kCorruptionDetected per accepted report.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  const IntegrityStats& stats() const { return stats_; }
  /// Adds every IntegrityStats field to `counters` under its report name
  /// (integrity.*).
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;

 private:
  NameNode& namenode_;
  ReplicationManager& replication_;
  int target_replication_;
  TraceRecorder* trace_ = nullptr;
  std::function<void(BlockId, NodeId)> on_disk_corrupt_;
  CachePurger purger_;
  IntegrityStats stats_;
};

}  // namespace ignem
