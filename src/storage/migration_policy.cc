#include "storage/migration_policy.h"

namespace ignem {

std::unique_ptr<MigrationPolicy> make_tier_policy(TierPolicyKind kind,
                                                  Duration cold_after) {
  switch (kind) {
    case TierPolicyKind::kUpwardOnHeat:
      return std::make_unique<UpwardOnHeatPolicy>();
    case TierPolicyKind::kDownwardOnCold:
      return std::make_unique<DownwardOnColdPolicy>(cold_after);
    case TierPolicyKind::kWriteBuffer:
      return std::make_unique<WriteBufferPolicy>();
  }
  return std::make_unique<UpwardOnHeatPolicy>();
}

}  // namespace ignem
