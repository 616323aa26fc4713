#include "storage/tier_hierarchy.h"

#include <utility>

#include "common/check.h"

namespace ignem {

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

namespace {

// The pool's capacity, once `specs` is known to have the two-tier shape.
Bytes pool_capacity(const std::vector<TierSpec>& specs) {
  IGNEM_CHECK_MSG(specs.size() == TierHierarchy::kTierCount,
                  "a node's storage is a pool tier over a home tier, got "
                      << specs.size() << " tiers");
  IGNEM_CHECK_MSG(specs[TierHierarchy::kPoolTier].capacity > 0,
                  "the pool tier needs a positive capacity");
  IGNEM_CHECK_MSG(specs[TierHierarchy::kHomeTier].capacity == 0,
                  "the home tier is unbounded (capacity 0)");
  return specs[TierHierarchy::kPoolTier].capacity;
}

}  // namespace

TierHierarchy::TierHierarchy(Simulator& sim, const std::string& base_name,
                             std::vector<TierSpec> specs, Rng rng)
    : pool_(pool_capacity(specs)) {
  for (std::size_t t = 0; t < kTierCount; ++t) {
    Tier& tier = tiers_[t];
    tier.spec = std::move(specs[t]);
    // Stream ids 1 (home) and 2 (pool) reproduce the pre-hierarchy
    // primary/ram fork order the pinned traces were recorded with.
    tier.device = std::make_unique<StorageDevice>(
        sim, base_name + "/" + tier.spec.name, tier.spec.profile,
        rng.fork(t == kHomeTier ? 1 : 2));
  }
}

void TierHierarchy::set_trace(TraceRecorder* trace, NodeId node) {
  trace_ = trace;
  node_ = node;
  for (auto& tier : tiers_) tier.device->set_trace(trace, node);
  pool_.set_trace(trace, node);
  if (trace_ != nullptr) {
    for (std::size_t t = 0; t < kTierCount; ++t) {
      trace_->emit(TraceEventType::kTierInit, node_, BlockId::invalid(),
                   JobId::invalid(), tiers_[t].spec.capacity,
                   static_cast<std::int64_t>(t));
    }
  }
}

void TierHierarchy::note_promote(BlockId block, Bytes bytes) {
  ++tiers_[kPoolTier].stats.promotes_in;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kTierPromote, node_, block, JobId::invalid(),
                 bytes,
                 static_cast<std::int64_t>((kHomeTier << 8) | kPoolTier));
  }
}

void TierHierarchy::note_demote(BlockId block, Bytes bytes) {
  ++drops_to_home_;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kTierDemote, node_, block, JobId::invalid(),
                 bytes,
                 static_cast<std::int64_t>((kPoolTier << 8) | kHomeTier));
  }
}

static_assert(sizeof(TierStats) == 3 * sizeof(std::uint64_t),
              "name the new TierStats field in TierHierarchy::add_counters");

void TierHierarchy::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  // Every promote comes from home and every demote drops to home, so each
  // move total is reported under both of its names.
  counters["tier.promotes"] += promotes_from_home();
  counters["tier.demotes"] += drops_to_home_;
  counters["tier.drops_to_home"] += drops_to_home_;
  counters["tier.promotes_from_home"] += promotes_from_home();
  for (std::size_t t = 0; t < kTierCount; ++t) {
    const std::string suffix = ".t" + std::to_string(t);
    const TierStats& stats = tiers_[t].stats;
    counters["tier.reads" + suffix] += stats.reads;
    counters["tier.promotes_in" + suffix] += stats.promotes_in;
    counters["tier.demotes_in" + suffix] += stats.demotes_in;
  }
}

}  // namespace ignem
