// Tier specifications for pricing a node's storage.
//
// A node's storage is the paper's two-level layout (see DataNode): a bounded
// RAM locked pool (tier 0) that holds promoted block copies, over the node's
// primary device (tier 1), the *home* tier — the unbounded durable replica
// store reads fall back to when no promoted copy exists. These specs only
// price that layout; the DataNode is built from its primary profile and
// pool capacity.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "storage/device.h"

namespace ignem {

/// One level of the layout: a name (device naming and reports), the device
/// model behind it, a capacity bound for the copy pool (0 means unbounded
/// and is only legal for the home tier), and a relative $/GiB-month figure
/// reports weigh.
struct TierSpec {
  std::string name;
  DeviceProfile profile;
  Bytes capacity = 0;
  double cost_per_gib = 0.0;
};

/// The two-level layout the paper models: a RAM pool of `cache_capacity`
/// over the node's primary device.
std::vector<TierSpec> two_tier_specs(const DeviceProfile& primary,
                                     Bytes cache_capacity);

/// Acquisition cost of one node's hierarchy: the sum over tiers of
/// capacity (GiB) × $/GiB. This is the hardware cost the paper's
/// upward-migration argument trades against: RAM costs ~100x HDD per GiB,
/// so serving hot data from a thin fast tier must beat buying more of it.
double tier_cost_total(const std::vector<TierSpec>& tiers);

}  // namespace ignem
