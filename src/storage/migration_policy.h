// Pluggable migration policies over a TierHierarchy.
//
// A policy is a pure decision object: the machinery that executes its
// decisions lives in the DataNode (write routing, copy release/demotion)
// and the Ignem slave (promotion target), so one policy instance can be
// shared by every node of a testbed. Three implementations ship:
//
//   UpwardOnHeat   the paper's Ignem behaviour, reproduced exactly —
//                  promote to the fastest tier on master command, drop
//                  evicted copies (the home replica persists), never
//                  buffer writes. With two tiers this *is* the paper's
//                  layout, bit for bit; a DataNode no Testbed configures
//                  runs it.
//   DownwardOnCold demotion/archival — an evicted or idle copy cascades
//                  one tier down instead of vanishing, ageing out of the
//                  hierarchy tier by tier (victim-cache style).
//   WriteBuffer    job-output writes land in the fastest tier and drain
//                  to the home tier in the background, absorbing bursts.
#pragma once

#include <cstddef>
#include <memory>

#include "common/units.h"
#include "storage/tier_hierarchy.h"

namespace ignem {

enum class TierPolicyKind {
  kUpwardOnHeat,
  kDownwardOnCold,
  kWriteBuffer,
};

class MigrationPolicy {
 public:
  virtual ~MigrationPolicy() = default;
  virtual const char* name() const = 0;

  /// Tier a master-commanded upward migration lands in.
  virtual std::size_t promotion_tier(const TierHierarchy& tiers) const {
    (void)tiers;
    return 0;
  }

  /// Where a copy released from tier `from` goes: a strictly lower tier to
  /// keep it as a demoted copy, or home_tier() to drop it (the durable
  /// home replica persists, so dropping loses nothing).
  virtual std::size_t demotion_target(const TierHierarchy& tiers,
                                      std::size_t from) const {
    (void)from;
    return tiers.home_tier();
  }

  /// True when victim-tier copies idle for `idle` should cascade further
  /// down on the periodic ageing tick.
  virtual bool demote_when_idle(Duration idle) const {
    (void)idle;
    return false;
  }

  /// True when job-output writes should land in the fastest tier and
  /// drain to the home tier in the background.
  virtual bool buffer_writes() const { return false; }
};

class UpwardOnHeatPolicy : public MigrationPolicy {
 public:
  const char* name() const override { return "upward-on-heat"; }
};

class DownwardOnColdPolicy : public MigrationPolicy {
 public:
  /// Copies idle in a victim tier for at least `cold_after` age one tier
  /// further down on each tick.
  explicit DownwardOnColdPolicy(Duration cold_after)
      : cold_after_(cold_after) {}

  const char* name() const override { return "downward-on-cold"; }
  std::size_t demotion_target(const TierHierarchy& /*tiers*/,
                              std::size_t from) const override {
    return from + 1;  // next tier down; home means drop
  }
  bool demote_when_idle(Duration idle) const override {
    return idle >= cold_after_;
  }

 private:
  Duration cold_after_;
};

class WriteBufferPolicy : public MigrationPolicy {
 public:
  const char* name() const override { return "write-buffer"; }
  bool buffer_writes() const override { return true; }
};

std::unique_ptr<MigrationPolicy> make_tier_policy(TierPolicyKind kind,
                                                  Duration cold_after);

}  // namespace ignem
