#include "storage/tier.h"

namespace ignem {

std::vector<TierSpec> two_tier_specs(const DeviceProfile& primary,
                                     Bytes cache_capacity) {
  // Names match the DataNode's device names ("dnN/ram", "dnN/primary").
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

}  // namespace ignem
