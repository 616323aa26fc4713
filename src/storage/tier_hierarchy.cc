#include "storage/tier_hierarchy.h"

#include <utility>

#include "common/check.h"

namespace ignem {

TierSpec ram_tier(Bytes capacity) {
  return TierSpec{"ram", ram_profile(), capacity, 10.0};
}

TierSpec pmem_tier(Bytes capacity) {
  return TierSpec{"pmem", pmem_profile(), capacity, 4.0};
}

TierSpec ssd_tier(Bytes capacity) {
  return TierSpec{"ssd", ssd_profile(), capacity, 0.4};
}

TierSpec hdd_tier(Bytes capacity) {
  return TierSpec{"hdd", hdd_profile(), capacity, 0.05};
}

TierSpec hdd_home_tier() { return TierSpec{"hdd", hdd_profile(), 0, 0.05}; }

TierSpec tape_home_tier() {
  return TierSpec{"tape", tape_profile(), 0, 0.01};
}

std::vector<TierSpec> two_tier_specs(const DeviceProfile& primary,
                                     Bytes cache_capacity) {
  // Names match the pre-hierarchy device names ("dnN/ram", "dnN/primary").
  std::vector<TierSpec> specs;
  specs.push_back(TierSpec{"ram", ram_profile(), cache_capacity, 10.0});
  specs.push_back(TierSpec{"primary", primary, 0, 0.05});
  return specs;
}

double tier_cost_total(const std::vector<TierSpec>& tiers) {
  double total = 0.0;
  for (const TierSpec& tier : tiers) {
    total += tier.cost_per_gib * (static_cast<double>(tier.capacity) / kGiB);
  }
  return total;
}

TierHierarchy::TierHierarchy(Simulator& sim, const std::string& base_name,
                             std::vector<TierSpec> specs, Rng rng) {
  IGNEM_CHECK_MSG(specs.size() >= 2,
                  "a tier hierarchy needs at least a fast tier and a home "
                  "tier, got " << specs.size());
  tiers_.reserve(specs.size());
  const std::size_t home = specs.size() - 1;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    Tier tier;
    tier.spec = std::move(specs[t]);
    // Stream ids 1 (home) and 2 (tier 0) reproduce the pre-hierarchy
    // primary/ram fork order; Rng::fork is order-independent, so middle
    // tiers can take fresh streams without perturbing those two.
    const std::uint64_t stream = t == home ? 1 : t == 0 ? 2 : 10 + t;
    tier.device = std::make_unique<StorageDevice>(
        sim, base_name + "/" + tier.spec.name, tier.spec.profile,
        rng.fork(stream));
    if (t != home) {
      IGNEM_CHECK_MSG(tier.spec.capacity > 0,
                      "non-home tier " << t << " needs a positive capacity");
      tier.pool = std::make_unique<BufferCache>(tier.spec.capacity);
    } else {
      IGNEM_CHECK_MSG(tier.spec.capacity == 0,
                      "the home tier is unbounded (capacity 0)");
    }
    tiers_.push_back(std::move(tier));
  }
}

BufferCache& TierHierarchy::pool(std::size_t t) {
  IGNEM_CHECK_MSG(t < home_tier(), "tier " << t << " has no pool");
  return *tiers_[t].pool;
}

const BufferCache& TierHierarchy::pool(std::size_t t) const {
  IGNEM_CHECK_MSG(t < home_tier(), "tier " << t << " has no pool");
  return *tiers_[t].pool;
}

std::size_t TierHierarchy::serving_tier(BlockId block) const {
  for (std::size_t t = 0; t < home_tier(); ++t) {
    if (tiers_[t].pool->contains(block)) return t;
  }
  return home_tier();
}

bool TierHierarchy::has_promoted_copy(BlockId block) const {
  return serving_tier(block) != home_tier();
}

std::size_t TierHierarchy::pool_corrupt_count() const {
  std::size_t count = 0;
  for (std::size_t t = 0; t < home_tier(); ++t) {
    count += tiers_[t].pool->corrupt_count();
  }
  return count;
}

void TierHierarchy::set_trace(TraceRecorder* trace, NodeId node) {
  trace_ = trace;
  node_ = node;
  for (auto& tier : tiers_) tier.device->set_trace(trace, node);
  // Only tier 0 joins the kCache* stream: one kCacheInit per node, exactly
  // as the pre-hierarchy layout emitted.
  tiers_[0].pool->set_trace(trace, node);
  if (trace_ != nullptr) {
    for (std::size_t t = 0; t < tiers_.size(); ++t) {
      trace_->emit(TraceEventType::kTierInit, node_, BlockId::invalid(),
                   JobId::invalid(), tiers_[t].spec.capacity,
                   static_cast<std::int64_t>(t));
    }
  }
}

void TierHierarchy::note_promote(std::size_t from, std::size_t to,
                                 BlockId block, Bytes bytes) {
  IGNEM_CHECK(to < from && to < home_tier());
  ++promotes_;
  ++tiers_[to].stats.promotes_in;
  if (from == home_tier()) ++promotes_from_home_;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kTierPromote, node_, block, JobId::invalid(),
                 bytes,
                 static_cast<std::int64_t>((from << 8) | to));
  }
}

void TierHierarchy::note_demote(std::size_t from, std::size_t to,
                                BlockId block, Bytes bytes) {
  IGNEM_CHECK(to > from);
  ++demotes_;
  if (to == home_tier()) {
    // Byte-level write-buffer drains (invalid block id) move no block copy,
    // so they stay out of the residency balance: pool residency always
    // equals promotes_from_home() - drops_to_home().
    if (block.valid()) ++drops_to_home_;
  } else {
    ++tiers_[to].stats.demotes_in;
  }
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kTierDemote, node_, block, JobId::invalid(),
                 bytes,
                 static_cast<std::int64_t>((from << 8) | to));
  }
}

static_assert(sizeof(TierStats) == 3 * sizeof(std::uint64_t),
              "name the new TierStats field in TierHierarchy::add_counters");

void TierHierarchy::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["tier.promotes"] += promotes_;
  counters["tier.demotes"] += demotes_;
  counters["tier.drops_to_home"] += drops_to_home_;
  counters["tier.promotes_from_home"] += promotes_from_home_;
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    const std::string suffix = ".t" + std::to_string(t);
    const TierStats& stats = tiers_[t].stats;
    counters["tier.reads" + suffix] += stats.reads;
    counters["tier.promotes_in" + suffix] += stats.promotes_in;
    counters["tier.demotes_in" + suffix] += stats.demotes_in;
  }
}

void TierHierarchy::clear_pools() {
  for (std::size_t t = 0; t < home_tier(); ++t) tiers_[t].pool->clear();
}

}  // namespace ignem
