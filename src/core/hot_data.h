// Hot-data promotion baseline (the related-work strawman, §I and §V).
//
// Triple-H-style schemes compute a temperature from access frequency and
// recency and promote blocks into RAM once they run hot. The paper's
// central observation is that this cannot help the large class of jobs
// whose inputs are *cold and singly read* — by the time a block is hot, its
// one read already happened from disk. This baseline implements the scheme
// so the claim can be demonstrated, not just asserted: on the SWIM
// workload (singly-read inputs) it buys nothing, while on iterative
// workloads it works as designed.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <unordered_map>

#include "common/ids.h"
#include "common/units.h"
#include "dfs/datanode.h"
#include "sim/simulator.h"

namespace ignem {

/// Reads after which a block counts as hot (frequency threshold).
inline constexpr int kHotPromoteThreshold = 2;

struct HotDataStats {
  std::uint64_t promotions = 0;
  std::uint64_t evictions = 0;
  Bytes bytes_promoted = 0;
};

/// Per-node promotion engine; plugs into the DataNode's read hook.
class HotDataPromoter : public BlockReadListener {
 public:
  HotDataPromoter(Simulator& sim, DataNode& datanode,
                  int promote_threshold = kHotPromoteThreshold);

  HotDataPromoter(const HotDataPromoter&) = delete;
  HotDataPromoter& operator=(const HotDataPromoter&) = delete;

  /// Counts the access; promotes once the block crosses the threshold.
  /// Under memory pressure the least-recently-used promoted block is
  /// evicted — hot-data caches, unlike Ignem, evict on demand.
  void on_block_read(NodeId node, BlockId block, JobId job) override;

  const HotDataStats& stats() const { return stats_; }
  /// Adds every HotDataStats field to `counters` under its report name
  /// (hotdata.*). Every node's promoter adds into the same names.
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;
  /// True when `block` is on this promoter's LRU list of promoted copies.
  bool promoted(BlockId block) const { return lru_index_.contains(block); }

  /// Integrity purge of a corrupt copy (DataNode::purge_cached_copy):
  /// forgets `block`'s LRU entry and drops its pool copy, so the list names
  /// only copies the pool holds. The access count stays, so the block's
  /// next clean read promotes it again. Returns true when a copy was
  /// dropped.
  bool purge_block(BlockId block) override;

  /// The DataNode process failed: aborts in-flight page-ins and forgets
  /// every access count and promoted block. DataNode::fail() calls this,
  /// then reclaims the pool itself.
  void reset() override;

  /// Emits kHotPromote (detail=observed reads, value=threshold) on each
  /// promotion decision.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 private:
  void promote(BlockId block, Bytes bytes);
  void touch(BlockId block);
  bool make_room(Bytes bytes);

  Simulator& sim_;
  DataNode& datanode_;
  int promote_threshold_;
  TraceRecorder* trace_ = nullptr;

  std::unordered_map<BlockId, int> access_counts_;
  std::list<BlockId> lru_;  // front = most recent
  std::unordered_map<BlockId, std::list<BlockId>::iterator> lru_index_;
  /// In-flight page-ins, ordered so reset() aborts them deterministically.
  std::map<BlockId, TransferHandle> page_ins_;
  HotDataStats stats_;
};

}  // namespace ignem
