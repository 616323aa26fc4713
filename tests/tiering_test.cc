// Two-tier storage: TierHierarchy layout and accounting, the
// TierResidencyRule on crafted event streams, and the tier events and pool
// counters of testbed runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/testbed.h"
#include "obs/invariant_checker.h"
#include "obs/trace_recorder.h"
#include "sim/simulator.h"
#include "storage/tier_hierarchy.h"
#include "test_util.h"
#include "workload/standalone.h"
#include "workload/swim.h"

namespace ignem {
namespace {

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
  TierHierarchy tiers(sim, "n0", two_tier_specs(hdd_profile(), 1 * kGiB),
                      Rng(1));
  const BlockId block(5);
  EXPECT_EQ(tiers.serving_tier(block), TierHierarchy::kHomeTier);
  EXPECT_FALSE(tiers.has_promoted_copy(block));

  ASSERT_TRUE(tiers.pool().lock(block, 64 * kMiB));
  EXPECT_EQ(tiers.serving_tier(block), TierHierarchy::kPoolTier);
  EXPECT_TRUE(tiers.has_promoted_copy(block));
}

TEST(TierHierarchyTest, CountersKeepTheResidencyBalance) {
  Simulator sim;
  TierHierarchy tiers(sim, "n0", two_tier_specs(hdd_profile(), 1 * kGiB),
                      Rng(1));
  tiers.note_promote(BlockId(1), 64 * kMiB);
  tiers.note_promote(BlockId(2), 64 * kMiB);
  tiers.note_demote(BlockId(1), 64 * kMiB);

  EXPECT_EQ(tiers.promotes_from_home(), 2u);
  EXPECT_EQ(tiers.drops_to_home(), 1u);
  // The invariant the 20-seed property sweep leans on: copies still
  // resident in the pool == promotes from home - drops back to home.
  EXPECT_EQ(tiers.promotes_from_home() - tiers.drops_to_home(), 1u);
  EXPECT_EQ(tiers.stats(TierHierarchy::kPoolTier).promotes_in, 2u);

  // Every promote is from home and every demote a drop to home, so the
  // report's move totals equal their from-home/to-home counterparts.
  std::map<std::string, std::uint64_t> counters;
  tiers.add_counters(counters);
  EXPECT_EQ(counters.at("tier.promotes"), 2u);
  EXPECT_EQ(counters.at("tier.promotes_from_home"), 2u);
  EXPECT_EQ(counters.at("tier.demotes"), 1u);
  EXPECT_EQ(counters.at("tier.drops_to_home"), 1u);
  EXPECT_EQ(counters.at("tier.promotes_in.t0"), 2u);
  EXPECT_EQ(counters.at("tier.demotes_in.t1"), 0u);
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
  const TierSpec pool{"ram", ram_profile(), 1 * kGiB, 10.0};
  const TierSpec home{"primary", hdd_profile(), 0, 0.05};
  // A single tier is not a hierarchy, and a third tier is not the paper's.
  EXPECT_THROW(TierHierarchy(sim, "n0", {home}, Rng(1)), CheckFailure);
  EXPECT_THROW(TierHierarchy(sim, "n0", {pool, pool, home}, Rng(1)),
               CheckFailure);
  // The pool needs a bound to evict against.
  TierSpec unbounded_pool = pool;
  unbounded_pool.capacity = 0;
  EXPECT_THROW(TierHierarchy(sim, "n0", {unbounded_pool, home}, Rng(1)),
               CheckFailure);
  // The home tier is the unbounded durable store.
  TierSpec bounded_home = home;
  bounded_home.capacity = 1 * kGiB;
  EXPECT_THROW(TierHierarchy(sim, "n0", {pool, bounded_home}, Rng(1)),
               CheckFailure);
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
// End to end: testbed runs emit tier events and count every pool move.

SwimConfig small_swim(std::uint64_t seed) {
  SwimConfig config;
  config.job_count = 12;
  config.total_input = 3 * kGiB;
  config.tail_max = 1 * kGiB;
  config.mean_interarrival = Duration::seconds(1.0);
  config.seed = seed;
  return config;
}

// Tier events join every traced run: one kTierInit per tier per node at
// wiring, one kTierPromote per copy entering the pool, and the
// TierResidencyRule checks them.
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

// Every path that puts a copy into the pool or takes one out counts it:
// the Ignem slave, the hot-data promoter (promote and LRU evict), the
// vmtouch preload and the instant-migration hypothetical. So after a
// fault-free run the pools hold exactly promotes_from_home - drops_to_home
// copies.
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
      resident += tiers.pool().block_count();
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
