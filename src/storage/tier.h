// Tier specifications for the N-level storage hierarchy.
//
// A node's storage is an ordered list of tiers, fastest first. Every tier
// except the last is a bounded pool of promoted/demoted block copies
// backed by its own device; the last tier is the *home* tier — the
// unbounded durable replica store reads fall back to when no faster copy
// exists. The paper's two-level layout (RAM locked-page pool over the
// primary disk) is the two-entry special case.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "storage/device.h"

namespace ignem {

/// One level of the hierarchy: a name (device naming and reports), the
/// device model behind it, a capacity bound for the copy pool (0 means
/// unbounded and is only legal for the home tier), and a relative
/// $/GiB-month knob policies and reports may weigh.
struct TierSpec {
  std::string name;
  DeviceProfile profile;
  Bytes capacity = 0;
  double cost_per_gib = 0.0;
};

/// Canonical tier builders with calibrated profiles and indicative
/// relative costs (RAM >> PMEM > SSD > HDD > tape).
TierSpec ram_tier(Bytes capacity);
TierSpec pmem_tier(Bytes capacity);
TierSpec ssd_tier(Bytes capacity);
TierSpec hdd_tier(Bytes capacity);
/// Home tiers: unbounded, hold the durable replicas.
TierSpec hdd_home_tier();
TierSpec tape_home_tier();

/// The two-level layout the paper models: a RAM pool of `cache_capacity`
/// over the node's primary device. Every run without an explicit tier stack
/// builds its DataNodes from this.
std::vector<TierSpec> two_tier_specs(const DeviceProfile& primary,
                                     Bytes cache_capacity);

/// Acquisition cost of one node's hierarchy: the sum over tiers of
/// capacity (GiB) × $/GiB. This is the hardware cost the paper's
/// upward-migration argument trades against: RAM costs ~100x HDD per GiB,
/// so serving hot data from a thin fast tier must beat buying more of it.
double tier_cost_total(const std::vector<TierSpec>& tiers);

}  // namespace ignem
