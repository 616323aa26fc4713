// N-tier storage hierarchy: migration policies, TierHierarchy accounting,
// DataNode promotion/demotion edges, the TierResidencyRule on crafted
// event streams, an end-to-end three-tier testbed run, and the tier events
// of a two-tier one.
//
// The differential contract (an explicit two-tier stack == the empty one,
// bit for bit) is pinned in kernel_regression_test.cc and metrics_test.cc;
// this file covers the behaviour that is *new* with three or more tiers or
// a non-default policy.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/testbed.h"
#include "dfs/datanode.h"
#include "obs/invariant_checker.h"
#include "obs/trace_recorder.h"
#include "sim/simulator.h"
#include "storage/migration_policy.h"
#include "storage/tier_hierarchy.h"
#include "test_util.h"
#include "workload/standalone.h"
#include "workload/swim.h"

namespace ignem {
namespace {

TierSpec quiet(TierSpec spec) {
  spec.profile.access_jitter = 0.0;
  return spec;
}

std::vector<TierSpec> quiet_three_tiers(Bytes ram, Bytes ssd) {
  return {quiet(ram_tier(ram)), quiet(ssd_tier(ssd)), quiet(hdd_home_tier())};
}

/// Drains the queue after letting `d` of simulated time pass (ageing tests
/// need an idle clock to move).
void advance(Simulator& sim, Duration d) {
  sim.schedule(d, [] {});
  sim.run();
}

// ---------------------------------------------------------------------------
// Migration policies: pure decision objects.

TEST(TierPolicy, UpwardOnHeatReproducesLegacyDecisions) {
  Simulator sim;
  TierHierarchy tiers(sim, "n0", quiet_three_tiers(1 * kGiB, 2 * kGiB),
                      Rng(1));
  UpwardOnHeatPolicy policy;
  EXPECT_EQ(policy.promotion_tier(tiers), 0u);
  // Released copies are dropped (the durable home replica persists).
  EXPECT_EQ(policy.demotion_target(tiers, 0), tiers.home_tier());
  EXPECT_EQ(policy.demotion_target(tiers, 1), tiers.home_tier());
  EXPECT_FALSE(policy.demote_when_idle(Duration::minutes(10)));
  EXPECT_FALSE(policy.buffer_writes());
}

TEST(TierPolicy, DownwardOnColdCascadesOneTierAtATime) {
  Simulator sim;
  TierHierarchy tiers(sim, "n0", quiet_three_tiers(1 * kGiB, 2 * kGiB),
                      Rng(1));
  DownwardOnColdPolicy policy(Duration::seconds(30.0));
  EXPECT_EQ(policy.promotion_tier(tiers), 0u);
  EXPECT_EQ(policy.demotion_target(tiers, 0), 1u);
  // From the last victim tier the next step down is home: a drop.
  EXPECT_EQ(policy.demotion_target(tiers, 1), tiers.home_tier());
  EXPECT_FALSE(policy.demote_when_idle(Duration::seconds(29.0)));
  EXPECT_TRUE(policy.demote_when_idle(Duration::seconds(30.0)));
  EXPECT_FALSE(policy.buffer_writes());
}

TEST(TierPolicy, WriteBufferOnlyChangesWriteRouting) {
  Simulator sim;
  TierHierarchy tiers(sim, "n0", quiet_three_tiers(1 * kGiB, 2 * kGiB),
                      Rng(1));
  WriteBufferPolicy policy;
  EXPECT_TRUE(policy.buffer_writes());
  EXPECT_EQ(policy.promotion_tier(tiers), 0u);
  EXPECT_EQ(policy.demotion_target(tiers, 0), tiers.home_tier());
  EXPECT_FALSE(policy.demote_when_idle(Duration::minutes(1)));
}

TEST(TierPolicy, FactoryBuildsEveryKind) {
  const auto up =
      make_tier_policy(TierPolicyKind::kUpwardOnHeat, Duration::seconds(1.0));
  const auto down = make_tier_policy(TierPolicyKind::kDownwardOnCold,
                                     Duration::seconds(7.0));
  const auto buffer =
      make_tier_policy(TierPolicyKind::kWriteBuffer, Duration::seconds(1.0));
  EXPECT_STREQ(up->name(), "upward-on-heat");
  EXPECT_STREQ(down->name(), "downward-on-cold");
  EXPECT_STREQ(buffer->name(), "write-buffer");
  EXPECT_FALSE(down->demote_when_idle(Duration::seconds(6.0)));
  EXPECT_TRUE(down->demote_when_idle(Duration::seconds(7.0)));
}

// ---------------------------------------------------------------------------
// TierHierarchy: layout and residency accounting.

TEST(TierHierarchyTest, TwoTierSpecsMirrorTheLegacyLayout) {
  const auto specs = two_tier_specs(hdd_profile(), 16 * kGiB);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "ram");
  EXPECT_EQ(specs[0].capacity, 16 * kGiB);
  EXPECT_EQ(specs[1].name, "primary");
  EXPECT_EQ(specs[1].capacity, 0u);  // home: unbounded
}

TEST(TierHierarchyTest, ServingTierPrefersTheFastestCopy) {
  Simulator sim;
  TierHierarchy tiers(sim, "n0", quiet_three_tiers(1 * kGiB, 2 * kGiB),
                      Rng(1));
  const BlockId block(5);
  EXPECT_EQ(tiers.serving_tier(block), tiers.home_tier());
  EXPECT_FALSE(tiers.has_promoted_copy(block));

  ASSERT_TRUE(tiers.pool(1).lock(block, 64 * kMiB));
  EXPECT_EQ(tiers.serving_tier(block), 1u);
  ASSERT_TRUE(tiers.pool(0).lock(block, 64 * kMiB));
  EXPECT_EQ(tiers.serving_tier(block), 0u);
  EXPECT_TRUE(tiers.has_promoted_copy(block));
}

TEST(TierHierarchyTest, CountersKeepTheResidencyBalance) {
  Simulator sim;
  TierHierarchy tiers(sim, "n0", quiet_three_tiers(1 * kGiB, 2 * kGiB),
                      Rng(1));
  const std::size_t home = tiers.home_tier();
  tiers.note_promote(home, 0, BlockId(1), 64 * kMiB);
  tiers.note_promote(home, 0, BlockId(2), 64 * kMiB);
  tiers.note_demote(0, home, BlockId(1), 64 * kMiB);
  // A byte-level write-buffer drain is not a block move: it counts as a
  // demote but never against the residency balance.
  tiers.note_demote(0, home, BlockId::invalid(), 32 * kMiB);

  EXPECT_EQ(tiers.total_promotes(), 2u);
  EXPECT_EQ(tiers.total_demotes(), 2u);
  EXPECT_EQ(tiers.promotes_from_home(), 2u);
  EXPECT_EQ(tiers.drops_to_home(), 1u);
  // The invariant the 20-seed property sweep leans on: copies still
  // resident in the pools == promotes from home - drops back to home.
  EXPECT_EQ(tiers.promotes_from_home() - tiers.drops_to_home(), 1u);
  EXPECT_EQ(tiers.stats(0).promotes_in, 2u);
}

// tier_cost_total sums capacity x $/GiB over a node's tiers. The suite
// name is the one these cases had when the CSV tier-cost writer also
// printed the total.
TEST(CsvExport, TierCost) {
  EXPECT_DOUBLE_EQ(
      tier_cost_total({TierSpec{"ram", DeviceProfile{}, 4 * kGiB, 10.0},
                       TierSpec{"hdd", DeviceProfile{}, 100 * kGiB, 0.05}}),
      45.0);
  // The unbounded home tier (capacity 0) costs nothing here.
  EXPECT_DOUBLE_EQ(tier_cost_total(two_tier_specs(hdd_profile(), 16 * kGiB)),
                   160.0);
}

TEST(CsvExport, TierCostEmptyHierarchy) {
  EXPECT_DOUBLE_EQ(tier_cost_total({}), 0.0);
}

TEST(TierHierarchyTest, RejectsMalformedStacks) {
  Simulator sim;
  // A single tier is not a hierarchy.
  EXPECT_THROW(TierHierarchy(sim, "n0", {quiet(hdd_home_tier())}, Rng(1)),
               CheckFailure);
  // Non-home tiers need a bound to evict against.
  EXPECT_THROW(TierHierarchy(sim, "n0",
                             {TierSpec{"ram", ram_profile(), 0, 10.0},
                              quiet(hdd_home_tier())},
                             Rng(1)),
               CheckFailure);
  // The home tier is the unbounded durable store.
  EXPECT_THROW(TierHierarchy(sim, "n0",
                             {quiet(ram_tier(1 * kGiB)),
                              TierSpec{"hdd", hdd_profile(), 1 * kGiB, 0.05}},
                             Rng(1)),
               CheckFailure);
}

// ---------------------------------------------------------------------------
// DataNode: capacity overflow, eviction, and write-buffer edges.

TEST(TieredDataNodeTest, ReleaseCascadesToTheVictimTier) {
  Simulator sim;
  DataNode node(sim, NodeId(0), quiet_three_tiers(256 * kMiB, 256 * kMiB),
                Rng(test::seed_for(1)));
  DownwardOnColdPolicy policy(Duration::seconds(30.0));
  node.set_migration_policy(policy);

  const BlockId block(1);
  node.add_block(block, 64 * kMiB);
  ASSERT_TRUE(node.cache().lock(block, 64 * kMiB));

  EXPECT_TRUE(node.release_copy(block, 0, 64 * kMiB, /*allow_demote=*/true));
  sim.run();  // background victim-tier device write
  EXPECT_FALSE(node.cache().contains(block));
  EXPECT_TRUE(node.tiers().pool(1).contains(block));
  EXPECT_EQ(node.tiers().serving_tier(block), 1u);
  EXPECT_EQ(node.tiers().total_demotes(), 1u);
  EXPECT_EQ(node.tiers().drops_to_home(), 0u);
}

TEST(TieredDataNodeTest, ReleaseDropsWhenTheVictimTierIsFull) {
  Simulator sim;
  DataNode node(sim, NodeId(0), quiet_three_tiers(256 * kMiB, 128 * kMiB),
                Rng(test::seed_for(2)));
  DownwardOnColdPolicy policy(Duration::seconds(30.0));
  node.set_migration_policy(policy);

  const BlockId block(1);
  node.add_block(block, 64 * kMiB);
  ASSERT_TRUE(node.cache().lock(block, 64 * kMiB));
  // Squat on the victim tier so the demoted copy cannot fit.
  ASSERT_TRUE(node.tiers().pool(1).lock(BlockId(99), 128 * kMiB));

  EXPECT_TRUE(node.release_copy(block, 0, 64 * kMiB, /*allow_demote=*/true));
  sim.run();
  EXPECT_FALSE(node.has_promoted_copy(block));
  EXPECT_EQ(node.tiers().serving_tier(block), node.tiers().home_tier());
  EXPECT_EQ(node.tiers().drops_to_home(), 1u);
}

TEST(TieredDataNodeTest, CorruptCopiesAreDroppedNeverDemoted) {
  Simulator sim;
  DataNode node(sim, NodeId(0), quiet_three_tiers(256 * kMiB, 256 * kMiB),
                Rng(test::seed_for(3)));
  DownwardOnColdPolicy policy(Duration::seconds(30.0));
  node.set_migration_policy(policy);

  const BlockId block(1);
  node.add_block(block, 64 * kMiB);
  ASSERT_TRUE(node.cache().lock(block, 64 * kMiB));
  node.corrupt_cached_copy(block);

  EXPECT_TRUE(node.release_copy(block, 0, 64 * kMiB, /*allow_demote=*/true));
  sim.run();
  // Demoting a known-bad copy would spread rot down the hierarchy.
  EXPECT_FALSE(node.has_promoted_copy(block));
  EXPECT_EQ(node.tiers().pool_corrupt_count(), 0u);
  EXPECT_EQ(node.tiers().drops_to_home(), 1u);
}

TEST(TieredDataNodeTest, VictimCopyServesReadsFasterThanHome) {
  Simulator sim;
  DataNode node(sim, NodeId(0), quiet_three_tiers(256 * kMiB, 256 * kMiB),
                Rng(test::seed_for(4)));
  DownwardOnColdPolicy policy(Duration::seconds(30.0));
  node.set_migration_policy(policy);

  const BlockId block(1);
  node.add_block(block, 64 * kMiB);
  BlockReadResult from_home{};
  node.read_block(block, JobId(1),
                  [&](const BlockReadResult& r) { from_home = r; });
  sim.run();
  ASSERT_FALSE(from_home.from_memory);

  ASSERT_TRUE(node.cache().lock(block, 64 * kMiB));
  ASSERT_TRUE(node.release_copy(block, 0, 64 * kMiB, /*allow_demote=*/true));
  sim.run();
  ASSERT_EQ(node.tiers().serving_tier(block), 1u);

  BlockReadResult from_victim{};
  node.read_block(block, JobId(1),
                  [&](const BlockReadResult& r) { from_victim = r; });
  sim.run();
  // The SSD victim tier is not RAM, but it beats the spinning home tier.
  EXPECT_FALSE(from_victim.from_memory);
  EXPECT_FALSE(from_victim.failed);
  EXPECT_LT(from_victim.duration.to_seconds(),
            from_home.duration.to_seconds());
  EXPECT_EQ(node.tiers().stats(1).reads, 1u);
}

TEST(TieredDataNodeTest, AgeingCascadesIdleCopiesTierByTier) {
  Simulator sim;
  DataNode node(sim, NodeId(0),
                {quiet(ram_tier(256 * kMiB)), quiet(pmem_tier(256 * kMiB)),
                 quiet(ssd_tier(256 * kMiB)), quiet(hdd_home_tier())},
                Rng(test::seed_for(5)));
  DownwardOnColdPolicy policy(Duration::seconds(3.0));
  node.set_migration_policy(policy);

  const BlockId block(1);
  node.add_block(block, 64 * kMiB);
  ASSERT_TRUE(node.cache().lock(block, 64 * kMiB));
  ASSERT_TRUE(node.release_copy(block, 0, 64 * kMiB, /*allow_demote=*/true));
  sim.run();
  ASSERT_EQ(node.tiers().serving_tier(block), 1u);

  // Not yet cold: nothing moves.
  advance(sim, Duration::seconds(1.0));
  EXPECT_EQ(node.age_victim_copies(), 0u);
  EXPECT_EQ(node.tiers().serving_tier(block), 1u);

  // Cold: one step down per sweep, never a skip straight to home.
  advance(sim, Duration::seconds(5.0));
  EXPECT_EQ(node.age_victim_copies(), 1u);
  sim.run();
  EXPECT_EQ(node.tiers().serving_tier(block), 2u);

  advance(sim, Duration::seconds(5.0));
  EXPECT_EQ(node.age_victim_copies(), 1u);
  sim.run();
  EXPECT_EQ(node.tiers().serving_tier(block), node.tiers().home_tier());
  EXPECT_EQ(node.tiers().total_demotes(), 3u);  // 0->1, 1->2, 2->home
  EXPECT_EQ(node.tiers().drops_to_home(), 1u);
}

TEST(TieredDataNodeTest, WriteBufferAbsorbsTheBurstThenDrains) {
  Simulator buffered_sim;
  DataNode buffered(buffered_sim, NodeId(0),
                    {quiet(ram_tier(256 * kMiB)), quiet(hdd_home_tier())},
                    Rng(test::seed_for(6)));
  WriteBufferPolicy policy;
  buffered.set_migration_policy(policy);

  Simulator plain_sim;
  DataNode plain(plain_sim, NodeId(0),
                 {quiet(ram_tier(256 * kMiB)), quiet(hdd_home_tier())},
                 Rng(test::seed_for(6)));

  SimTime buffered_done;
  buffered.write(64 * kMiB, [&] { buffered_done = buffered_sim.now(); });
  SimTime plain_done;
  plain.write(64 * kMiB, [&] { plain_done = plain_sim.now(); });
  buffered_sim.run();
  plain_sim.run();

  // The caller sees fast-tier latency; the home write happens behind it.
  EXPECT_LT(buffered_done.to_seconds(), plain_done.to_seconds() / 10);
  // After the background drain the reservation is back in the pool.
  EXPECT_EQ(buffered.cache().used(), 0u);
  EXPECT_EQ(buffered.cache().reserved(), 0u);
  EXPECT_EQ(buffered.tiers().total_demotes(), 1u);
  // A drain moves bytes, not a block copy: residency balance untouched.
  EXPECT_EQ(buffered.tiers().drops_to_home(), 0u);
}

TEST(TieredDataNodeTest, WriteBufferOverflowFallsThroughToHome) {
  Simulator buffered_sim;
  DataNode buffered(buffered_sim, NodeId(0),
                    {quiet(ram_tier(32 * kMiB)), quiet(hdd_home_tier())},
                    Rng(test::seed_for(7)));
  WriteBufferPolicy policy;
  buffered.set_migration_policy(policy);

  Simulator plain_sim;
  DataNode plain(plain_sim, NodeId(0),
                 {quiet(ram_tier(32 * kMiB)), quiet(hdd_home_tier())},
                 Rng(test::seed_for(7)));

  SimTime buffered_done;
  buffered.write(64 * kMiB, [&] { buffered_done = buffered_sim.now(); });
  SimTime plain_done;
  plain.write(64 * kMiB, [&] { plain_done = plain_sim.now(); });
  buffered_sim.run();
  plain_sim.run();

  // No headroom: identical to the unbuffered home-tier write.
  EXPECT_DOUBLE_EQ(buffered_done.to_seconds(), plain_done.to_seconds());
  EXPECT_EQ(buffered.cache().used(), 0u);
  EXPECT_EQ(buffered.tiers().total_demotes(), 0u);
}

TEST(TieredDataNodeTest, RemoveBlockPurgesOrphanedVictimCopies) {
  Simulator sim;
  DataNode node(sim, NodeId(0), quiet_three_tiers(256 * kMiB, 256 * kMiB),
                Rng(test::seed_for(8)));
  DownwardOnColdPolicy policy(Duration::seconds(30.0));
  node.set_migration_policy(policy);

  const BlockId block(1);
  node.add_block(block, 64 * kMiB);
  ASSERT_TRUE(node.cache().lock(block, 64 * kMiB));
  ASSERT_TRUE(node.release_copy(block, 0, 64 * kMiB, /*allow_demote=*/true));
  sim.run();
  ASSERT_TRUE(node.tiers().pool(1).contains(block));

  node.remove_block(block);
  sim.run();
  EXPECT_FALSE(node.has_block(block));
  EXPECT_FALSE(node.has_promoted_copy(block));
  EXPECT_EQ(node.tiers().pool(1).used(), 0u);
}

// ---------------------------------------------------------------------------
// TierResidencyRule on crafted event streams.

struct RuleHarness {
  TraceRecorder trace;
  InvariantChecker checker{/*install_default_rules=*/false};

  RuleHarness() {
    checker.add_rule(std::make_unique<TierResidencyRule>());
    trace.add_observer(&checker);
  }

  void init(NodeId node, const std::vector<Bytes>& capacities) {
    for (std::size_t t = 0; t < capacities.size(); ++t) {
      trace.emit(TraceEventType::kTierInit, node, BlockId::invalid(),
                 JobId::invalid(), capacities[t],
                 static_cast<std::int64_t>(t));
    }
  }
  void promote(NodeId node, BlockId block, Bytes bytes, std::size_t from,
               std::size_t to) {
    trace.emit(TraceEventType::kTierPromote, node, block, JobId::invalid(),
               bytes, static_cast<std::int64_t>((from << 8) | to));
  }
  void demote(NodeId node, BlockId block, Bytes bytes, std::size_t from,
              std::size_t to) {
    trace.emit(TraceEventType::kTierDemote, node, block, JobId::invalid(),
               bytes, static_cast<std::int64_t>((from << 8) | to));
  }
};

TEST(TierResidencyRuleTest, AcceptsAWellFormedLifecycle) {
  RuleHarness h;
  const NodeId node(0);
  h.init(node, {100, 200, 0});  // tier 2 = home
  h.promote(node, BlockId(1), 64, 2, 0);
  h.demote(node, BlockId(1), 64, 0, 1);
  h.promote(node, BlockId(1), 64, 1, 0);  // re-promoted from the victim tier
  h.demote(node, BlockId(1), 64, 0, 2);   // dropped to home
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

TEST(TierResidencyRuleTest, FlagsASecondCopyOfAResidentBlock) {
  RuleHarness h;
  const NodeId node(0);
  h.init(node, {100, 200, 0});
  h.promote(node, BlockId(1), 64, 2, 0);
  // The copy already lives in tier 0; promoting "from home" again claims a
  // second pool copy on the same node.
  h.promote(node, BlockId(1), 64, 2, 0);
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations()[0].rule, "tier_residency");
}

TEST(TierResidencyRuleTest, FlagsADemoteFromTheWrongTier) {
  RuleHarness h;
  const NodeId node(0);
  h.init(node, {100, 200, 0});
  h.demote(node, BlockId(1), 64, 0, 1);  // no copy was ever promoted
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations()[0].rule, "tier_residency");
}

TEST(TierResidencyRuleTest, FlagsOccupancyOverTheAnnouncedCapacity) {
  RuleHarness h;
  const NodeId node(0);
  h.init(node, {100, 0});  // tier 1 = home
  h.promote(node, BlockId(1), 60, 1, 0);
  h.promote(node, BlockId(2), 60, 1, 0);  // 120 bytes in a 100-byte tier
  ASSERT_FALSE(h.checker.ok());
  EXPECT_NE(h.checker.violations()[0].message.find("capacity"),
            std::string::npos);
}

TEST(TierResidencyRuleTest, NodeCrashReclaimsEveryPool) {
  RuleHarness h;
  const NodeId node(0);
  h.init(node, {100, 200, 0});
  h.promote(node, BlockId(1), 64, 2, 0);
  h.trace.emit(TraceEventType::kFaultNodeCrash, node);
  // After the crash the pools are empty: a fresh promotion of the same
  // block is legal, not a double residency.
  h.promote(node, BlockId(1), 64, 2, 0);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

TEST(TierResidencyRuleTest, IgnoresByteLevelWriteDrains) {
  RuleHarness h;
  const NodeId node(0);
  h.init(node, {100, 0});
  h.demote(node, BlockId::invalid(), 64, 0, 1);  // write-buffer drain
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

// ---------------------------------------------------------------------------
// End to end: a three-tier Ignem run exercises promotion, demotion, and
// the full default invariant set (TierResidencyRule included).

SwimConfig small_swim(std::uint64_t seed) {
  SwimConfig config;
  config.job_count = 12;
  config.total_input = 3 * kGiB;
  config.tail_max = 1 * kGiB;
  config.mean_interarrival = Duration::seconds(1.0);
  config.seed = seed;
  return config;
}

TEST(TieredTestbedTest, ThreeTierIgnemRunPromotesAndDemotes) {
  TestbedConfig config;
  config.mode = RunMode::kIgnem;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 6;
  config.seed = test::seed_for(42);
  config.check_invariants = true;
  config.tiering.tiers = {ram_tier(1 * kGiB), ssd_tier(2 * kGiB),
                          hdd_home_tier()};
  config.tiering.policy = TierPolicyKind::kDownwardOnCold;
  config.tiering.cold_after = Duration::seconds(2.0);
  config.tiering.age_check_period = Duration::seconds(1.0);

  Testbed testbed(config);
  testbed.run_workload(
      build_swim_workload(testbed, small_swim(test::seed_for(42))));

  std::uint64_t promotes = 0;
  std::uint64_t demotes = 0;
  for (std::size_t n = 0; n < config.cluster.node_count; ++n) {
    const TierHierarchy& tiers =
        testbed.datanode(NodeId(static_cast<std::int64_t>(n))).tiers();
    promotes += tiers.total_promotes();
    demotes += tiers.total_demotes();
    for (std::size_t t = 0; t < tiers.home_tier(); ++t) {
      EXPECT_LE(tiers.pool(t).peak_used(), tiers.spec(t).capacity);
    }
  }
  EXPECT_GT(promotes, 0u);
  EXPECT_GT(demotes, 0u);

  std::size_t tier_events = 0;
  for (const TraceEvent& event : testbed.trace()->events()) {
    if (event.type == TraceEventType::kTierPromote ||
        event.type == TraceEventType::kTierDemote) {
      ++tier_events;
    }
  }
  EXPECT_GT(tier_events, 0u);
  // The sampler tracks occupancy of both pool tiers, not the home tier.
  const auto& series = testbed.metrics_registry().series();
  ASSERT_TRUE(series.contains("tier.occupancy.t1"));
  EXPECT_FALSE(series.at("tier.occupancy.t1").windows().empty());
  EXPECT_FALSE(series.contains("tier.occupancy.t2"));
  ASSERT_NE(testbed.invariant_checker(), nullptr);
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
}

// Tier events join every traced run, the paper's two tiers under
// UpwardOnHeat included: one kTierInit per tier per node at wiring, one
// kTierPromote per copy entering the pools, and the TierResidencyRule
// checks them.
TEST(TieredTestbedTest, TwoTierRunEmitsTierEvents) {
  TestbedConfig config;
  config.mode = RunMode::kIgnem;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 1 * kGiB;
  config.seed = test::seed_for(43);
  config.check_invariants = true;

  Testbed testbed(config);
  testbed.run_workload(
      build_swim_workload(testbed, small_swim(test::seed_for(43))));

  std::map<std::pair<std::int64_t, std::int64_t>, int> inits;
  std::uint64_t promotes = 0;
  for (const TraceEvent& event : testbed.trace()->events()) {
    if (event.type == TraceEventType::kTierInit) {
      ++inits[{event.node.value(), event.detail}];
    } else if (event.type == TraceEventType::kTierPromote) {
      ++promotes;
    }
  }
  std::map<std::pair<std::int64_t, std::int64_t>, int> expected;
  for (std::int64_t node = 0; node < 4; ++node) {
    for (std::int64_t tier = 0; tier < 2; ++tier) expected[{node, tier}] = 1;
  }
  EXPECT_EQ(inits, expected);

  const std::uint64_t promotes_from_home =
      testbed.build_run_report("two-tier").counters.at(
          "tier.promotes_from_home");
  EXPECT_GT(promotes_from_home, 0u);
  EXPECT_EQ(promotes, promotes_from_home);
  ASSERT_NE(testbed.invariant_checker(), nullptr);
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
}

// Five passes over one 2 GiB dataset, a minute apart: the iterative
// regime in which hot-data promotion promotes.
std::vector<ScheduledJob> iterative_passes(Testbed& testbed) {
  const JobSpec pass = make_grep_job(testbed, "/iter", 2 * kGiB);
  std::vector<ScheduledJob> jobs;
  for (int i = 0; i < 5; ++i) {
    ScheduledJob job;
    job.arrival = Duration::seconds(i * 60.0);
    job.spec = pass;
    job.spec.name = "pass-" + std::to_string(i);
    jobs.push_back(job);
  }
  return jobs;
}

// Every path that puts a copy into tier 0 or takes one out counts it: the
// Ignem slave, the hot-data promoter (promote and LRU evict), the vmtouch
// preload and the instant-migration hypothetical. So after a fault-free
// run the pools hold exactly promotes_from_home - drops_to_home copies.
TEST(TierCounters, CountEveryPoolEntryAndExit) {
  // The second hot-data run's 256 MiB pools hold four blocks, so the
  // promoter evicts to make room.
  const std::pair<RunMode, Bytes> runs[] = {
      {RunMode::kHotDataPromotion, 16 * kGiB},
      {RunMode::kHotDataPromotion, 256 * kMiB},
      {RunMode::kHdfsInputsInRam, 16 * kGiB},
      {RunMode::kInstantMigration, 16 * kGiB},
      {RunMode::kIgnem, 16 * kGiB}};
  for (const auto& [mode, pool] : runs) {
    SCOPED_TRACE(std::string(run_mode_name(mode)) + ", " +
                 std::to_string(pool / kMiB) + " MiB pools");
    TestbedConfig config;
    config.mode = mode;
    config.cluster.node_count = 4;
    config.cluster.slots_per_node = 6;
    config.cache_capacity_per_node = pool;
    config.seed = test::seed_for(44);
    Testbed testbed(config);
    testbed.run_workload(iterative_passes(testbed));
    if (pool < 2 * kGiB) {
      std::uint64_t evictions = 0;
      for (std::size_t n = 0; n < config.cluster.node_count; ++n) {
        const NodeId node(static_cast<std::int64_t>(n));
        evictions += testbed.hot_data_promoter(node)->stats().evictions;
      }
      ASSERT_GT(evictions, 0u);
    }

    std::uint64_t resident = 0;
    std::uint64_t from_home = 0;
    std::uint64_t drops = 0;
    for (std::size_t n = 0; n < config.cluster.node_count; ++n) {
      const TierHierarchy& tiers =
          testbed.datanode(NodeId(static_cast<std::int64_t>(n))).tiers();
      resident += tiers.pool(0).block_count();
      from_home += tiers.promotes_from_home();
      drops += tiers.drops_to_home();
    }
    EXPECT_GT(from_home, 0u);
    EXPECT_LE(drops, from_home);
    EXPECT_EQ(resident, from_home - drops)
        << "promotes_from_home " << from_home << ", drops_to_home " << drops;
  }
}

}  // namespace
}  // namespace ignem
