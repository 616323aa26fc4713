// TierHierarchy: a node's ordered stack of storage tiers.
//
// Owns one StorageDevice per tier plus a BufferCache copy pool for every
// tier above the home tier, and keeps the residency/accounting view the
// migration machinery and the observability plane share: which tier serves
// a block, how many copies moved up or down, and per-tier read counters.
//
// Trace wiring is deliberately asymmetric: only tier 0's pool joins the
// kCache* event stream (the CacheCapacityRule is keyed per node), while tier
// moves are reported through the dedicated kTierInit/kTierPromote/
// kTierDemote events — in every traced run, the paper's two tiers included.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "storage/buffer_cache.h"
#include "storage/device.h"
#include "storage/tier.h"

namespace ignem {

/// Per-tier counters (hit rate = reads / total reads); add_counters names
/// each one in the RunReport.
struct TierStats {
  std::uint64_t reads = 0;        ///< Block reads this tier served.
  std::uint64_t promotes_in = 0;  ///< Copies that landed here from below.
  std::uint64_t demotes_in = 0;   ///< Copies that landed here from above.
};

class TierHierarchy {
 public:
  /// `specs` ordered fastest to slowest; the last entry is the home tier
  /// (capacity 0, no pool), every other entry needs a positive capacity.
  /// RNG streams: the home device forks stream 1 and tier 0 forks stream 2
  /// — matching the pre-hierarchy primary/ram fork order so two-tier
  /// traces stay bit-identical — and middle tier t forks stream 10 + t.
  TierHierarchy(Simulator& sim, const std::string& base_name,
                std::vector<TierSpec> specs, Rng rng);

  TierHierarchy(const TierHierarchy&) = delete;
  TierHierarchy& operator=(const TierHierarchy&) = delete;

  std::size_t tier_count() const { return tiers_.size(); }
  std::size_t home_tier() const { return tiers_.size() - 1; }

  const TierSpec& spec(std::size_t t) const { return tiers_[t].spec; }
  StorageDevice& device(std::size_t t) { return *tiers_[t].device; }
  const StorageDevice& device(std::size_t t) const { return *tiers_[t].device; }
  /// Copy pool of a non-home tier (t < home_tier()).
  BufferCache& pool(std::size_t t);
  const BufferCache& pool(std::size_t t) const;

  /// The fastest tier currently holding a copy of `block`; home_tier()
  /// when only the durable replica exists.
  std::size_t serving_tier(BlockId block) const;
  /// True when any pool tier holds a copy (reads skip the home device).
  bool has_promoted_copy(BlockId block) const;
  /// Sum of corrupt-copy marks across every pool tier.
  std::size_t pool_corrupt_count() const;

  /// Wires every device (silent at wiring time) and tier 0's pool (emits
  /// kCacheInit) into `trace`, and emits one kTierInit per tier now; from
  /// then on note_promote/note_demote emit kTierPromote/kTierDemote
  /// (detail = from << 8 | to).
  void set_trace(TraceRecorder* trace, NodeId node);

  void note_read(std::size_t tier) { ++tiers_[tier].stats.reads; }
  void note_promote(std::size_t from, std::size_t to, BlockId block,
                    Bytes bytes);
  void note_demote(std::size_t from, std::size_t to, BlockId block,
                   Bytes bytes);

  const TierStats& stats(std::size_t t) const { return tiers_[t].stats; }
  std::uint64_t total_promotes() const { return promotes_; }
  std::uint64_t total_demotes() const { return demotes_; }
  /// Demotes whose destination was the home tier (the copy was dropped —
  /// the durable replica persists, so no data moved).
  std::uint64_t drops_to_home() const { return drops_to_home_; }
  /// Promotes whose source was the home tier (a copy entered the pools).
  std::uint64_t promotes_from_home() const { return promotes_from_home_; }

  /// Adds the move totals (tier.promotes, tier.demotes, tier.drops_to_home,
  /// tier.promotes_from_home) and every TierStats field of every tier
  /// (tier.reads.t<N>, tier.promotes_in.t<N>, tier.demotes_in.t<N>) to
  /// `counters`. Every node's hierarchy adds into the same names.
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;

  /// Process failure: the OS reclaims every pool's locked memory.
  void clear_pools();

 private:
  struct Tier {
    TierSpec spec;
    std::unique_ptr<StorageDevice> device;
    std::unique_ptr<BufferCache> pool;  ///< Null for the home tier.
    TierStats stats;
  };

  std::vector<Tier> tiers_;
  TraceRecorder* trace_ = nullptr;
  NodeId node_;
  std::uint64_t promotes_ = 0;
  std::uint64_t demotes_ = 0;
  std::uint64_t promotes_from_home_ = 0;
  std::uint64_t drops_to_home_ = 0;
};

}  // namespace ignem
