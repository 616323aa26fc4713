// Two-tier storage: the DataNode's pool over its home device, the pool's
// own move counts, the CacheCapacityRule's residency checks on crafted
// event streams, and the pool events and counters of testbed runs.
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
#include "storage/tier.h"
#include "test_util.h"
#include "workload/standalone.h"
#include "workload/swim.h"

namespace ignem {
namespace {

// ---------------------------------------------------------------------------
// The layout: a RAM pool over the primary device, and what each counts.

TEST(TierSpecTest, TwoTierSpecsMirrorTheDataNodeLayout) {
  const auto specs = two_tier_specs(hdd_profile(), 16 * kGiB);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "ram");
  EXPECT_EQ(specs[0].capacity, 16 * kGiB);
  EXPECT_EQ(specs[1].name, "primary");
  EXPECT_EQ(specs[1].capacity, 0u);  // home: unbounded

  Simulator sim;
  DataNode node(sim, NodeId(3), hdd_profile(), 16 * kGiB, Rng(1));
  EXPECT_EQ(node.primary_device().name(), "dn3/" + specs[1].name);
  EXPECT_EQ(node.primary_device().media(), specs[1].profile.media);
  EXPECT_EQ(node.cache().capacity(), specs[0].capacity);
}

TEST(DataNodeTiers, ServingTierPrefersThePoolCopy) {
  Simulator sim;
  DataNode node(sim, NodeId(0), hdd_profile(), 1 * kGiB, Rng(1));
  const BlockId block(5);
  node.add_block(block, 64 * kMiB);
  const auto read = [&] {
    BlockReadResult result;
    node.read_block(block, 64 * kMiB, JobId(1),
                    [&](const BlockReadResult& r) { result = r; });
    sim.run();
    return result;
  };

  EXPECT_FALSE(node.has_promoted_copy(block));
  EXPECT_FALSE(read().from_memory);
  ASSERT_TRUE(node.cache().lock(block, 64 * kMiB));
  EXPECT_TRUE(node.has_promoted_copy(block));
  EXPECT_TRUE(read().from_memory);
  EXPECT_EQ(node.stats().pool_reads, 1u);
  EXPECT_EQ(node.stats().home_reads, 1u);
}

TEST(PoolCounters, KeepTheResidencyBalance) {
  Simulator sim;
  DataNode node(sim, NodeId(0), hdd_profile(), 1 * kGiB, Rng(1));
  BufferCache& pool = node.cache();
  ASSERT_TRUE(pool.lock(BlockId(1), 64 * kMiB));
  ASSERT_TRUE(pool.lock(BlockId(1), 64 * kMiB));  // already there: no move
  ASSERT_TRUE(pool.reserve(64 * kMiB));
  pool.commit_reservation(BlockId(2), 64 * kMiB);
  ASSERT_TRUE(pool.reserve(64 * kMiB));
  pool.cancel_reservation(64 * kMiB);  // an aborted page-in moves nothing
  ASSERT_TRUE(pool.unlock(BlockId(1)));
  EXPECT_FALSE(pool.unlock(BlockId(9)));  // never held: no move

  EXPECT_EQ(pool.stats().promotes, 2u);
  EXPECT_EQ(pool.stats().demotes, 1u);
  // The invariant the 20-seed property sweep leans on: copies still
  // resident in the pool == promotes - demotes.
  EXPECT_EQ(pool.stats().promotes - pool.stats().demotes, pool.block_count());

  // One report name per fact.
  std::map<std::string, std::uint64_t> counters;
  node.add_counters(counters);
  const std::map<std::string, std::uint64_t> expected{
      {"tier.promotes", 2u},
      {"tier.demotes", 1u},
      {"tier.reads.t0", 0u},
      {"tier.reads.t1", 0u}};
  EXPECT_EQ(counters, expected);

  // A process failure reclaims the pool without moving a copy.
  node.fail();
  EXPECT_EQ(pool.block_count(), 0u);
  EXPECT_EQ(pool.stats().promotes, 2u);
  EXPECT_EQ(pool.stats().demotes, 1u);
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

// The pool needs a bound to evict against; the two-tier shape itself is
// the constructor's signature.
TEST(DataNodeTiers, RejectsAPoolWithoutCapacity) {
  Simulator sim;
  EXPECT_THROW(DataNode(sim, NodeId(0), hdd_profile(), 0, Rng(1)),
               CheckFailure);
}

// ---------------------------------------------------------------------------
// CacheCapacityRule on crafted event streams: one copy per block per node,
// and each event's detail equals the occupancy the stream adds up to.

struct RuleHarness {
  TraceRecorder trace;
  InvariantChecker checker{/*install_default_rules=*/false};

  RuleHarness() {
    checker.add_rule(std::make_unique<CacheCapacityRule>());
    trace.add_observer(&checker);
  }

  void init(NodeId node, Bytes capacity) {
    trace.emit(TraceEventType::kCacheInit, node, BlockId::invalid(),
               JobId::invalid(), capacity);
  }
  /// One pool event; `used` is the occupancy the pool reports after it.
  void pool(TraceEventType type, NodeId node, BlockId block, Bytes bytes,
            Bytes used) {
    trace.emit(type, node, block, JobId::invalid(), bytes, used);
  }
  std::size_t violations() const { return checker.violations().size(); }
};

TEST(CacheCapacityRuleTest, AcceptsAWellFormedLifecycle) {
  RuleHarness h;
  const NodeId node(0);
  h.init(node, 1000);
  h.pool(TraceEventType::kCacheReserve, node, BlockId::invalid(), 64, 64);
  h.pool(TraceEventType::kCacheCommit, node, BlockId(1), 64, 64);
  h.pool(TraceEventType::kCacheLock, node, BlockId(2), 100, 164);
  h.pool(TraceEventType::kCacheUnlock, node, BlockId(1), 64, 100);
  h.pool(TraceEventType::kCacheReserve, node, BlockId::invalid(), 64, 164);
  h.pool(TraceEventType::kCacheCancel, node, BlockId::invalid(), 64, 100);
  h.pool(TraceEventType::kCacheUnlock, node, BlockId(2), 100, 0);
  h.pool(TraceEventType::kCacheLock, node, BlockId(1), 64, 64);  // re-entry
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

TEST(CacheCapacityRuleTest, FlagsASecondCopyOfAResidentBlock) {
  RuleHarness h;
  const NodeId node(0);
  h.init(node, 1000);
  h.pool(TraceEventType::kCacheLock, node, BlockId(1), 64, 64);
  h.pool(TraceEventType::kCacheLock, node, BlockId(1), 64, 128);
  ASSERT_EQ(h.violations(), 1u) << h.checker.report();
  EXPECT_EQ(h.checker.violations()[0].rule, "cache_capacity");
  EXPECT_NE(h.checker.violations()[0].message.find("already holds"),
            std::string::npos);

  h.pool(TraceEventType::kCacheReserve, node, BlockId::invalid(), 64, 192);
  h.pool(TraceEventType::kCacheCommit, node, BlockId(1), 64, 192);
  ASSERT_EQ(h.violations(), 2u) << h.checker.report();
  EXPECT_EQ(h.checker.violations()[1].type, TraceEventType::kCacheCommit);
}

TEST(CacheCapacityRuleTest, FlagsAnUnlockOfABlockThePoolNeverHeld) {
  RuleHarness h;
  const NodeId node(0);
  h.init(node, 1000);
  h.pool(TraceEventType::kCacheLock, node, BlockId(1), 64, 64);
  h.pool(TraceEventType::kCacheUnlock, node, BlockId(2), 64, 0);
  ASSERT_EQ(h.violations(), 1u) << h.checker.report();
  EXPECT_EQ(h.checker.violations()[0].rule, "cache_capacity");
  EXPECT_NE(h.checker.violations()[0].message.find("holds no copy"),
            std::string::npos);
}

TEST(CacheCapacityRuleTest, FlagsOccupancyOverTheAnnouncedCapacity) {
  RuleHarness h;
  const NodeId node(0);
  h.init(node, 100);
  h.pool(TraceEventType::kCacheLock, node, BlockId(1), 60, 60);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
  h.pool(TraceEventType::kCacheLock, node, BlockId(2), 60, 120);  // 120 > 100
  ASSERT_EQ(h.violations(), 1u) << h.checker.report();
  EXPECT_EQ(h.checker.violations()[0].rule, "cache_capacity");
  EXPECT_NE(h.checker.violations()[0].message.find("capacity"),
            std::string::npos);
}

TEST(CacheCapacityRuleTest, FlagsADetailThatDisagreesWithTheDerivedOccupancy) {
  RuleHarness h;
  const NodeId node(0);
  h.init(node, 1000);
  h.pool(TraceEventType::kCacheLock, node, BlockId(1), 64, 64);
  h.pool(TraceEventType::kCacheReserve, node, BlockId::invalid(), 64, 64);
  ASSERT_EQ(h.violations(), 1u) << h.checker.report();
  EXPECT_NE(h.checker.violations()[0].message.find("add up to 128"),
            std::string::npos);
  // The rule resyncs to the reported occupancy: one bad event, one report.
  h.pool(TraceEventType::kCacheCancel, node, BlockId::invalid(), 64, 0);
  EXPECT_EQ(h.violations(), 1u) << h.checker.report();
}

TEST(CacheCapacityRuleTest, AggregateUnlockClearsTheNode) {
  RuleHarness h;
  const NodeId crashed(0);
  const NodeId other(1);
  h.init(crashed, 1000);
  h.init(other, 1000);
  h.pool(TraceEventType::kCacheLock, other, BlockId(1), 64, 64);
  h.pool(TraceEventType::kCacheLock, crashed, BlockId(1), 64, 64);
  h.pool(TraceEventType::kCacheReserve, crashed, BlockId::invalid(), 64, 128);
  // Testbed::fail_node's order: the crash, the slave cancelling its
  // in-flight reservation, then the pool reclaimed as one aggregate unlock.
  h.trace.emit(TraceEventType::kFaultNodeCrash, crashed);
  h.pool(TraceEventType::kCacheCancel, crashed, BlockId::invalid(), 64, 64);
  h.pool(TraceEventType::kCacheUnlock, crashed, BlockId::invalid(), 64, 0);
  // The pool is empty again: a fresh copy of the same block is legal.
  h.pool(TraceEventType::kCacheLock, crashed, BlockId(1), 64, 64);
  // The other node's pool kept its copy.
  h.pool(TraceEventType::kCacheUnlock, other, BlockId(1), 64, 0);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

// ---------------------------------------------------------------------------
// End to end: testbed runs record and count every pool move once.

SwimConfig small_swim(std::uint64_t seed) {
  SwimConfig config;
  config.job_count = 12;
  config.total_input = 3 * kGiB;
  config.tail_max = 1 * kGiB;
  config.mean_interarrival = Duration::seconds(1.0);
  config.seed = seed;
  return config;
}

// The pool's own events are the tier moves' one record: one kCacheInit per
// node at wiring, one kCacheLock or kCacheCommit per copy entering the
// pool and one kCacheUnlock per copy leaving it, each matching the pool's
// move counts, with the CacheCapacityRule checking them.
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

  std::map<std::int64_t, int> inits;
  std::uint64_t entries = 0;
  std::uint64_t exits = 0;
  for (const TraceEvent& event : testbed.trace()->events()) {
    switch (event.type) {
      case TraceEventType::kCacheInit:
        ++inits[event.node.value()];
        break;
      case TraceEventType::kCacheLock:
      case TraceEventType::kCacheCommit:
        ++entries;
        break;
      case TraceEventType::kCacheUnlock:
        if (event.block.valid()) ++exits;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(inits, (std::map<std::int64_t, int>{{0, 1}, {1, 1}, {2, 1},
                                                {3, 1}}));

  const auto counters = testbed.build_run_report("two-tier").counters;
  EXPECT_GT(counters.at("tier.promotes"), 0u);
  EXPECT_EQ(entries, counters.at("tier.promotes"));
  EXPECT_EQ(exits, counters.at("tier.demotes"));
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

// Every path that puts a copy into the pool or takes one out is counted by
// the pool: the Ignem slave, the hot-data promoter (promote and LRU
// evict), the vmtouch preload and the instant-migration hypothetical. So
// after a fault-free run the pools hold exactly promotes - demotes copies.
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
    std::uint64_t promotes = 0;
    std::uint64_t demotes = 0;
    for (std::size_t n = 0; n < config.cluster.node_count; ++n) {
      const BufferCache& pool =
          testbed.datanode(NodeId(static_cast<std::int64_t>(n))).cache();
      resident += pool.block_count();
      promotes += pool.stats().promotes;
      demotes += pool.stats().demotes;
    }
    EXPECT_GT(promotes, 0u);
    EXPECT_LE(demotes, promotes);
    EXPECT_EQ(resident, promotes - demotes)
        << "promotes " << promotes << ", demotes " << demotes;
    // The report carries the same totals under one name each.
    const auto counters = testbed.build_run_report("moves").counters;
    EXPECT_EQ(counters.at("tier.promotes"), promotes);
    EXPECT_EQ(counters.at("tier.demotes"), demotes);
  }
}

}  // namespace
}  // namespace ignem
