// TierHierarchy: a node's two storage tiers.
//
// Owns the node's two devices — RAM behind the locked pool (tier 0) and the
// primary device (tier 1, the home tier) — plus the pool itself, and keeps
// the residency/accounting view the migration machinery and the
// observability plane share: which tier serves a block, how many copies
// entered and left the pool, and per-tier read counters.
//
// Trace wiring: the pool joins the kCache* event stream, and copy moves are
// reported through the dedicated kTierInit/kTierPromote/kTierDemote events
// in every traced run.
#pragma once

#include <array>
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
  static constexpr std::size_t kPoolTier = 0;
  static constexpr std::size_t kHomeTier = 1;
  static constexpr std::size_t kTierCount = 2;

  /// `specs` has the shape two_tier_specs() builds: a bounded pool tier
  /// over an unbounded (capacity 0) home tier. RNG streams: the home device
  /// forks stream 1 and the pool's device forks stream 2.
  TierHierarchy(Simulator& sim, const std::string& base_name,
                std::vector<TierSpec> specs, Rng rng);

  TierHierarchy(const TierHierarchy&) = delete;
  TierHierarchy& operator=(const TierHierarchy&) = delete;

  StorageDevice& device(std::size_t t) { return *tiers_[t].device; }
  const StorageDevice& device(std::size_t t) const { return *tiers_[t].device; }
  /// The locked pool of promoted copies.
  BufferCache& pool() { return pool_; }
  const BufferCache& pool() const { return pool_; }

  /// kPoolTier when the pool holds a copy of `block`, else kHomeTier.
  std::size_t serving_tier(BlockId block) const {
    return has_promoted_copy(block) ? kPoolTier : kHomeTier;
  }
  /// True when the pool holds a copy (reads skip the home device).
  bool has_promoted_copy(BlockId block) const {
    return pool_.contains(block);
  }

  /// Wires both devices (silent at wiring time) and the pool (emits
  /// kCacheInit) into `trace`, and emits one kTierInit per tier now; from
  /// then on note_promote/note_demote emit kTierPromote/kTierDemote
  /// (detail = from << 8 | to).
  void set_trace(TraceRecorder* trace, NodeId node);

  void note_read(std::size_t tier) { ++tiers_[tier].stats.reads; }
  /// A copy of `block` entered the pool from the home tier.
  void note_promote(BlockId block, Bytes bytes);
  /// The pool's copy of `block` was dropped; the durable home replica
  /// persists, so no data moved.
  void note_demote(BlockId block, Bytes bytes);

  const TierStats& stats(std::size_t t) const { return tiers_[t].stats; }
  /// Copies that entered the pool.
  std::uint64_t promotes_from_home() const {
    return tiers_[kPoolTier].stats.promotes_in;
  }
  /// Copies dropped from the pool.
  std::uint64_t drops_to_home() const { return drops_to_home_; }

  /// Adds the move totals (tier.promotes, tier.demotes, tier.drops_to_home,
  /// tier.promotes_from_home) and every TierStats field of both tiers
  /// (tier.reads.t<N>, tier.promotes_in.t<N>, tier.demotes_in.t<N>) to
  /// `counters`. Every node's hierarchy adds into the same names.
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;

  /// Process failure: the OS reclaims the pool's locked memory.
  void clear_pool() { pool_.clear(); }

 private:
  struct Tier {
    TierSpec spec;
    std::unique_ptr<StorageDevice> device;
    TierStats stats;
  };

  std::array<Tier, kTierCount> tiers_;
  BufferCache pool_;
  TraceRecorder* trace_ = nullptr;
  NodeId node_;
  std::uint64_t drops_to_home_ = 0;
};

}  // namespace ignem
