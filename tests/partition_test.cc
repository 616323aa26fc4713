// Partition tolerance and recovery-storm control: the RateLimiter's GCRA
// math, the ReachabilityMatrix's symmetric/asymmetric/group fault shapes,
// the rack topology, the detector's suspicion grace window and false-dead
// accounting, and the end-to-end partition -> spurious death -> heal ->
// rejoin-reconciliation cycle that must leave zero excess replicas and zero
// leaked bytes behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "common/check.h"
#include "common/rate_limiter.h"
#include "core/testbed.h"
#include "dfs/namenode.h"
#include "net/network.h"
#include "net/reachability.h"
#include "net/topology.h"
#include "workload/swim.h"

namespace ignem {
namespace {

// ---------------------------------------------------------------------------
// RateLimiter (GCRA token bucket)

TEST(RateLimiter, BurstPassesThenPacingKicksIn) {
  RateLimiter limiter(mib_per_sec(100), 10 * kMiB);
  const SimTime t0 = SimTime::zero();
  EXPECT_EQ(limiter.reserve(10 * kMiB, t0), Duration::zero());
  // GCRA admits one burst of debt past the bucket before waits begin.
  EXPECT_EQ(limiter.reserve(10 * kMiB, t0), Duration::zero());
  // From here on, each reservation waits out the previous one's cost.
  const Duration cost = transfer_time(10 * kMiB, mib_per_sec(100));
  EXPECT_EQ(limiter.reserve(10 * kMiB, t0), cost);
  EXPECT_EQ(limiter.reserve(10 * kMiB, t0), cost + cost);
}

TEST(RateLimiter, IdleTimeRefillsTheBucket) {
  RateLimiter limiter(mib_per_sec(100), 10 * kMiB);
  // Deep debt: three bursts reserved back-to-back.
  (void)limiter.reserve(30 * kMiB, SimTime::zero());
  // Long idle stretch: the bucket is full again (but never fuller).
  const SimTime later = SimTime::zero() + Duration::seconds(10);
  EXPECT_EQ(limiter.reserve(10 * kMiB, later), Duration::zero());
}

// ---------------------------------------------------------------------------
// ReachabilityMatrix

TEST(Reachability, SymmetricAndAsymmetricBlocks) {
  ReachabilityMatrix matrix(4);
  EXPECT_TRUE(matrix.fully_connected());
  EXPECT_TRUE(matrix.reachable(NodeId(0), NodeId(1)));

  matrix.block_outbound(NodeId(2));
  EXPECT_FALSE(matrix.reachable(NodeId(2), NodeId(0)));
  EXPECT_TRUE(matrix.reachable(NodeId(0), NodeId(2)));  // asymmetric
  matrix.unblock_outbound(NodeId(2));

  matrix.block_inbound(NodeId(2));
  EXPECT_TRUE(matrix.reachable(NodeId(2), NodeId(0)));
  EXPECT_FALSE(matrix.reachable(NodeId(0), NodeId(2)));
  matrix.unblock_inbound(NodeId(2));
  EXPECT_TRUE(matrix.fully_connected());
}

TEST(Reachability, OverlappingWindowsRefcount) {
  ReachabilityMatrix matrix(4);
  matrix.block_outbound(NodeId(1));
  matrix.block_outbound(NodeId(1));  // second overlapping window
  matrix.unblock_outbound(NodeId(1));
  EXPECT_FALSE(matrix.reachable(NodeId(1), NodeId(0)))
      << "one window still open";
  matrix.unblock_outbound(NodeId(1));
  EXPECT_TRUE(matrix.fully_connected());
}

TEST(Reachability, GroupSplitIsolatesMembersFromTheRest) {
  ReachabilityMatrix matrix(6);
  matrix.block_group(1, {NodeId(1), NodeId(3), NodeId(5)});
  // Intra-group and intra-remainder traffic still flows.
  EXPECT_TRUE(matrix.reachable(NodeId(1), NodeId(3)));
  EXPECT_TRUE(matrix.reachable(NodeId(0), NodeId(4)));
  // Cross-split traffic is cut in both directions.
  EXPECT_FALSE(matrix.reachable(NodeId(1), NodeId(0)));
  EXPECT_FALSE(matrix.reachable(NodeId(0), NodeId(1)));
  // Overlapping re-block of the same key deepens the refcount.
  matrix.block_group(1, {NodeId(1), NodeId(3), NodeId(5)});
  matrix.unblock_group(1);
  EXPECT_FALSE(matrix.reachable(NodeId(0), NodeId(5)));
  matrix.unblock_group(1);
  EXPECT_TRUE(matrix.fully_connected());
}

TEST(Reachability, SelfIsAlwaysReachable) {
  ReachabilityMatrix matrix(2);
  matrix.block_outbound(NodeId(0));
  matrix.block_inbound(NodeId(0));
  EXPECT_TRUE(matrix.reachable(NodeId(0), NodeId(0)));
}

// ---------------------------------------------------------------------------
// Topology

TEST(Topology, RoundRobinRackAssignment) {
  Topology topology(6, 2);
  EXPECT_EQ(topology.rack_of(NodeId(0)), 0);
  EXPECT_EQ(topology.rack_of(NodeId(3)), 1);
  EXPECT_TRUE(topology.same_rack(NodeId(0), NodeId(4)));
  EXPECT_FALSE(topology.same_rack(NodeId(0), NodeId(1)));
  const std::vector<NodeId> rack1 = topology.rack_members(1);
  ASSERT_EQ(rack1.size(), 3u);
  EXPECT_EQ(rack1[0], NodeId(1));
  EXPECT_EQ(rack1[1], NodeId(3));
  EXPECT_EQ(rack1[2], NodeId(5));
}

// ---------------------------------------------------------------------------
// End-to-end partitions through the Testbed fault surface

TestbedConfig partition_config(int nodes = 4) {
  TestbedConfig config;
  config.mode = RunMode::kIgnem;
  config.cluster.node_count = static_cast<std::size_t>(nodes);
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 16 * kGiB;
  config.seed = 47;
  config.fault_tolerance = true;
  config.check_invariants = true;
  return config;
}

std::size_t count_events(Testbed& testbed, TraceEventType type,
                         std::int64_t detail = -1) {
  const auto& events = testbed.trace()->events();
  return static_cast<std::size_t>(std::count_if(
      events.begin(), events.end(), [type, detail](const TraceEvent& e) {
        return e.type == type && (detail < 0 || e.detail == detail);
      }));
}

TEST(Partition, SymmetricPartitionFalseDeathThenCleanHeal) {
  Testbed testbed(partition_config());
  const FileId file = testbed.create_file("/input", 640 * kMiB);
  testbed.sim().schedule(Duration::seconds(5), [&] {
    testbed.begin_network_partition(NodeId(2), /*variant=*/0);
  });
  testbed.sim().schedule(Duration::seconds(60), [&] {
    testbed.end_network_partition(NodeId(2), /*variant=*/0);
  });
  testbed.sim().run(SimTime::zero() + Duration::seconds(150));

  // The silent-but-alive node was declared dead: a false positive, counted.
  EXPECT_EQ(testbed.failure_detector()->false_dead_total(), 1u);
  EXPECT_EQ(count_events(testbed, TraceEventType::kFalseDead), 1u);
  EXPECT_GE(count_events(testbed, TraceEventType::kPartitionStart), 1u);
  EXPECT_GE(count_events(testbed, TraceEventType::kPartitionHeal), 1u);

  // After the heal its heartbeats readmit it, and the rejoin reconciliation
  // trims the replicas the recovery storm duplicated while it was "dead".
  EXPECT_TRUE(testbed.namenode().is_node_alive(NodeId(2)));
  EXPECT_GT(testbed.replication_manager().stats().blocks_repaired, 0u);
  EXPECT_GT(testbed.replication_manager().stats().excess_deleted, 0u);
  EXPECT_GT(count_events(testbed, TraceEventType::kExcessReplicaDeleted), 0u);
  for (const BlockId block : testbed.namenode().file(file).blocks) {
    EXPECT_EQ(testbed.namenode().live_locations(block).size(), 3u)
        << "block " << block.value();
  }
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
  EXPECT_EQ(testbed.replica_model_mismatch(), "");
}

TEST(Partition, InboundOnlyCutKeepsHeartbeatsFlowing) {
  // variant 2: the node can send (heartbeats included) but receives
  // nothing — the asymmetric shape. The detector must NOT declare it dead.
  Testbed testbed(partition_config());
  testbed.create_file("/input", 640 * kMiB);
  testbed.sim().schedule(Duration::seconds(5), [&] {
    testbed.begin_network_partition(NodeId(2), /*variant=*/2);
    EXPECT_TRUE(testbed.network().reachable(NodeId(2), NodeId(0)));
    EXPECT_FALSE(testbed.network().reachable(NodeId(0), NodeId(2)));
  });
  testbed.sim().schedule(Duration::seconds(60), [&] {
    testbed.end_network_partition(NodeId(2), /*variant=*/2);
  });
  testbed.sim().run(SimTime::zero() + Duration::seconds(90));
  EXPECT_EQ(count_events(testbed, TraceEventType::kFaultDetectedDead), 0u);
  EXPECT_EQ(testbed.failure_detector()->false_dead_total(), 0u);
  EXPECT_TRUE(testbed.namenode().is_node_alive(NodeId(2)));
  EXPECT_TRUE(testbed.network().reachable(NodeId(0), NodeId(2)));
}

TEST(Partition, OutboundOnlyCutLooksDeadToTheDetector) {
  Testbed testbed(partition_config());
  testbed.create_file("/input", 640 * kMiB);
  testbed.sim().schedule(Duration::seconds(5), [&] {
    testbed.begin_network_partition(NodeId(1), /*variant=*/1);
    EXPECT_FALSE(testbed.network().reachable(NodeId(1), NodeId(0)));
    EXPECT_TRUE(testbed.network().reachable(NodeId(0), NodeId(1)));
  });
  testbed.sim().schedule(Duration::seconds(60), [&] {
    testbed.end_network_partition(NodeId(1), /*variant=*/1);
  });
  testbed.sim().run(SimTime::zero() + Duration::seconds(120));
  EXPECT_GE(count_events(testbed, TraceEventType::kFaultDetectedDead,
                         /*detail=*/0),
            1u);
  EXPECT_EQ(testbed.failure_detector()->false_dead_total(), 1u);
  EXPECT_TRUE(testbed.namenode().is_node_alive(NodeId(1)));  // healed
}

TEST(Partition, RackPartitionSilencesTheWholeRackAndHealsCleanly) {
  TestbedConfig config = partition_config(/*nodes=*/6);
  config.rack_count = 2;
  Testbed testbed(config);
  const FileId file = testbed.create_file("/input", 640 * kMiB);
  testbed.sim().schedule(Duration::seconds(5), [&] {
    testbed.begin_rack_partition(NodeId(1));  // rack 1 = nodes 1, 3, 5
    EXPECT_TRUE(testbed.network().reachable(NodeId(1), NodeId(3)));
    EXPECT_FALSE(testbed.network().reachable(NodeId(1), NodeId(0)));
    EXPECT_FALSE(testbed.network().reachable(NodeId(0), NodeId(5)));
  });
  testbed.sim().schedule(Duration::seconds(60),
                         [&] { testbed.end_rack_partition(NodeId(1)); });
  testbed.sim().run(SimTime::zero() + Duration::seconds(200));

  // All three members were spuriously declared dead, then readmitted.
  EXPECT_EQ(testbed.failure_detector()->false_dead_total(), 3u);
  for (const std::int64_t i : {1, 3, 5}) {
    EXPECT_TRUE(testbed.namenode().is_node_alive(NodeId(i))) << "node " << i;
  }
  // Rack-aware placement put a replica of every block on the surviving
  // rack, so nothing was lost; after the heal the rejoin reconciliation
  // must have trimmed every block back to exactly its target replication.
  EXPECT_EQ(testbed.replication_manager().stats().blocks_unrepairable, 0u);
  for (const BlockId block : testbed.namenode().file(file).blocks) {
    EXPECT_EQ(testbed.namenode().live_locations(block).size(), 3u)
        << "block " << block.value();
  }
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
  EXPECT_EQ(testbed.replica_model_mismatch(), "");
}

TEST(Partition, PartitionedWorkloadCompletesAndLeaksNothing) {
  // A live Ignem workload rides through a symmetric partition: reads fail
  // over (reachability-filtered replica choice), migrations reroute, and
  // after the heal no locked bytes may leak and no replicas may be excess.
  Testbed testbed(partition_config());
  SwimConfig swim;
  swim.job_count = 12;
  swim.total_input = 3 * kGiB;
  swim.tail_max = 1 * kGiB;
  swim.mean_interarrival = Duration::seconds(2.0);
  swim.seed = 9;
  auto jobs = build_swim_workload(testbed, swim);
  testbed.sim().schedule(Duration::seconds(8), [&] {
    testbed.begin_network_partition(NodeId(2), /*variant=*/0);
  });
  testbed.sim().schedule(Duration::seconds(48), [&] {
    testbed.end_network_partition(NodeId(2), /*variant=*/0);
  });
  ASSERT_TRUE(testbed.run_workload_limited(std::move(jobs),
                                           Duration::seconds(3600)));
  // Drain the post-heal reconciliation before measuring.
  testbed.sim().run(testbed.sim().now() + Duration::seconds(30));
  EXPECT_EQ(testbed.metrics().jobs().size(), 12u);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(testbed.datanode(NodeId(i)).cache().used(), 0) << "node " << i;
  }
  for (const auto& [block, info] : testbed.namenode().all_blocks()) {
    EXPECT_LE(testbed.namenode().live_locations(block).size(), 3u)
        << "block " << block.value() << " left over-replicated";
  }
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
  EXPECT_EQ(testbed.replica_model_mismatch(), "");
}

// ---------------------------------------------------------------------------
// Suspicion grace window

TEST(SuspicionGrace, ShortSilenceIsSuspectedNotDeclared) {
  TestbedConfig config = partition_config();
  config.detector.suspicion_grace = Duration::seconds(10);
  Testbed testbed(config);
  testbed.create_file("/input", 640 * kMiB);
  // Silence of ~15 s: past the 12 s timeout (suspect) but inside
  // timeout + grace = 22 s, so the NameNode plane never declares death.
  testbed.sim().schedule(Duration::seconds(5),
                         [&] { testbed.begin_heartbeat_delay(NodeId(2)); });
  testbed.sim().schedule(Duration::seconds(20),
                         [&] { testbed.end_heartbeat_delay(NodeId(2)); });
  testbed.sim().run(SimTime::zero() + Duration::seconds(60));
  EXPECT_GE(count_events(testbed, TraceEventType::kNodeSuspect), 1u);
  EXPECT_EQ(count_events(testbed, TraceEventType::kFaultDetectedDead,
                         /*detail=*/0),
            0u);
  EXPECT_EQ(testbed.failure_detector()->false_dead_total(), 0u);
  EXPECT_EQ(count_events(testbed, TraceEventType::kFalseDead), 0u);
  EXPECT_TRUE(testbed.namenode().is_node_alive(NodeId(2)));
  EXPECT_EQ(testbed.replication_manager().stats().blocks_repaired, 0u)
      << "a suspicion must not trigger a recovery storm";
}

TEST(SuspicionGrace, LongSilenceGoesSuspectThenDeadThenRejoins) {
  TestbedConfig config = partition_config();
  config.detector.suspicion_grace = Duration::seconds(5);
  Testbed testbed(config);
  const FileId file = testbed.create_file("/input", 640 * kMiB);
  testbed.sim().schedule(Duration::seconds(5),
                         [&] { testbed.begin_heartbeat_delay(NodeId(2)); });
  testbed.sim().schedule(Duration::seconds(55),
                         [&] { testbed.end_heartbeat_delay(NodeId(2)); });
  testbed.sim().run(SimTime::zero() + Duration::seconds(150));

  ASSERT_GE(count_events(testbed, TraceEventType::kNodeSuspect), 1u);
  ASSERT_GE(count_events(testbed, TraceEventType::kFaultDetectedDead,
                         /*detail=*/0),
            1u);
  // Suspicion strictly precedes declaration.
  SimTime suspect_at, dead_at;
  for (const TraceEvent& e : testbed.trace()->events()) {
    if (e.type == TraceEventType::kNodeSuspect &&
        suspect_at == SimTime::zero()) {
      suspect_at = e.time;
    }
    if (e.type == TraceEventType::kFaultDetectedDead && e.detail == 0 &&
        dead_at == SimTime::zero()) {
      dead_at = e.time;
    }
  }
  EXPECT_LT(suspect_at, dead_at);
  EXPECT_EQ(testbed.failure_detector()->false_dead_total(), 1u);
  // Clean rejoin: alive again, replicas trimmed back to target.
  EXPECT_TRUE(testbed.namenode().is_node_alive(NodeId(2)));
  for (const BlockId block : testbed.namenode().file(file).blocks) {
    EXPECT_EQ(testbed.namenode().live_locations(block).size(), 3u);
  }
}

TEST(SuspicionGrace, BeatInsideTheWindowClearsSuspicion) {
  TestbedConfig config = partition_config();
  config.detector.suspicion_grace = Duration::seconds(10);
  Testbed testbed(config);
  testbed.create_file("/input", 64 * kMiB);
  testbed.sim().schedule(Duration::seconds(5),
                         [&] { testbed.begin_heartbeat_delay(NodeId(2)); });
  testbed.sim().schedule(Duration::seconds(19),
                         [&] { testbed.end_heartbeat_delay(NodeId(2)); });
  bool was_suspect = false;
  testbed.sim().schedule(Duration::seconds(18), [&] {
    was_suspect = testbed.failure_detector()->is_suspect(NodeId(2));
  });
  testbed.sim().run(SimTime::zero() + Duration::seconds(40));
  EXPECT_TRUE(was_suspect);
  EXPECT_FALSE(testbed.failure_detector()->is_suspect(NodeId(2)));
  EXPECT_EQ(testbed.failure_detector()->false_dead_total(), 0u);
}

// ---------------------------------------------------------------------------
// Rejoin reconciliation + rack-aware repair

TEST(Rejoin, CrashRepairRestartTrimsExcessReplicas) {
  Testbed testbed(partition_config());
  const FileId file = testbed.create_file("/input", 640 * kMiB);
  testbed.sim().schedule(Duration::seconds(5),
                         [&] { testbed.fail_node(NodeId(0)); });
  // Long outage: every under-replicated block is repaired onto survivors.
  testbed.sim().schedule(Duration::seconds(120),
                         [&] { testbed.restart_node(NodeId(0)); });
  testbed.sim().run(SimTime::zero() + Duration::seconds(200));
  // The restarted disk still holds its old replicas; rejoin reconciliation
  // must shed the duplicates rather than leaving 4 live copies around.
  EXPECT_GT(testbed.replication_manager().stats().blocks_repaired, 0u);
  EXPECT_GT(testbed.replication_manager().stats().excess_deleted, 0u);
  for (const BlockId block : testbed.namenode().file(file).blocks) {
    EXPECT_EQ(testbed.namenode().live_locations(block).size(), 3u)
        << "block " << block.value();
  }
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
  EXPECT_EQ(testbed.replica_model_mismatch(), "");
}

TEST(Rejoin, ThrottledRecoveryAlsoEndsBalanced) {
  TestbedConfig config = partition_config();
  config.replication_rate_limit = mib_per_sec(32);
  Testbed testbed(config);
  const FileId file = testbed.create_file("/input", 640 * kMiB);
  testbed.sim().schedule(Duration::seconds(5),
                         [&] { testbed.fail_node(NodeId(0)); });
  testbed.sim().schedule(Duration::seconds(150),
                         [&] { testbed.restart_node(NodeId(0)); });
  testbed.sim().run(SimTime::zero() + Duration::seconds(250));
  EXPECT_GT(testbed.replication_manager().stats().repairs_throttled, 0u);
  EXPECT_GT(testbed.replication_manager().stats().bytes_repaired, 0);
  for (const BlockId block : testbed.namenode().file(file).blocks) {
    EXPECT_EQ(testbed.namenode().live_locations(block).size(), 3u);
  }
}

TEST(RackAwareRepair, RepairRestoresOffRackRedundancy) {
  TestbedConfig config = partition_config(/*nodes=*/6);
  config.rack_count = 2;
  Testbed testbed(config);
  const FileId file = testbed.create_file("/input", 640 * kMiB);
  // Fail one node and let repair finish without it.
  testbed.sim().schedule(Duration::seconds(5),
                         [&] { testbed.fail_node(NodeId(4)); });
  testbed.sim().run(SimTime::zero() + Duration::seconds(150));
  const Topology& topology = testbed.network().topology();
  for (const BlockId block : testbed.namenode().file(file).blocks) {
    const std::vector<NodeId> live = testbed.namenode().live_locations(block);
    ASSERT_EQ(live.size(), 3u) << "block " << block.value();
    bool rack0 = false, rack1 = false;
    for (const NodeId node : live) {
      (topology.rack_of(node) == 0 ? rack0 : rack1) = true;
    }
    EXPECT_TRUE(rack0 && rack1)
        << "block " << block.value() << " lost off-rack redundancy";
  }
}

// ---------------------------------------------------------------------------
// Rack-aware initial placement under pressure (property)

// Builds a NameNode + DataNode fleet with round-robin rack assignment and
// kills every node of every rack but rack 0 except one survivor each — the
// capacity-less analogue of near-full racks: a uniform draw would
// overwhelmingly land all copies in the fat rack, so only the off-rack
// placement constraint keeps them spread. Property: while at least two
// racks have live nodes, no block's replica set may collapse into one rack.
void check_placement_spreads(int racks, std::uint64_t seed) {
  Simulator sim;
  const int nodes = racks * 3;
  NameNode namenode(Rng(seed), /*replication=*/3, /*block_size=*/64 * kMiB,
                    racks);
  std::vector<std::unique_ptr<DataNode>> datanodes;
  for (int i = 0; i < nodes; ++i) {
    datanodes.push_back(std::make_unique<DataNode>(
        sim, NodeId(i), hdd_profile(), 16 * kGiB,
        Rng(100 + static_cast<std::uint64_t>(i))));
    namenode.register_datanode(datanodes.back().get());
  }
  for (int i = racks; i < nodes; ++i) {
    if (i % racks != 0) namenode.set_node_alive(NodeId(i), false);
  }
  for (int f = 0; f < 40; ++f) {
    const FileId id =
        namenode.create_file("/f" + std::to_string(f), 256 * kMiB);
    for (const BlockId block : namenode.file(id).blocks) {
      const auto& replicas = namenode.block(block).replicas;
      ASSERT_GE(replicas.size(), 2u);
      std::set<int> spanned;
      for (const NodeId node : replicas) spanned.insert(namenode.rack_of(node));
      EXPECT_GE(spanned.size(), 2u)
          << "racks=" << racks << " seed=" << seed << " block "
          << block.value() << ": every replica landed in rack "
          << *spanned.begin();
    }
  }
}

TEST(Placement, ReplicasNeverCollapseIntoOneRackUnderPressure) {
  for (const int racks : {3, 4}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      check_placement_spreads(racks, seed);
    }
  }
}

// ---------------------------------------------------------------------------
// RateLimiter edges: non-positive/low budgets and same-timestamp determinism

TEST(RateLimiter, NonPositiveRateIsRejected) {
  // Unthrottled repair has no limiter; a limiter with no budget would make
  // every reservation wait forever.
  EXPECT_THROW(RateLimiter(0.0, 64 * kMiB), CheckFailure);
  EXPECT_THROW(RateLimiter(-1.0, 64 * kMiB), CheckFailure);
}

TEST(RateLimiter, VeryLowRateWaitsAreFiniteAndAdditive) {
  // 1 KiB/s against MiB-scale reservations: waits grow linearly with the
  // debt, but each is finite and exact — a throttled repair slot always
  // frees eventually.
  RateLimiter limiter(1024.0, 0);
  const SimTime t0 = SimTime::zero();
  const Duration cost = transfer_time(64 * kMiB, 1024.0);
  EXPECT_EQ(limiter.reserve(64 * kMiB, t0), Duration::zero());
  EXPECT_EQ(limiter.reserve(64 * kMiB, t0), cost);
  EXPECT_EQ(limiter.reserve(64 * kMiB, t0), cost + cost);
}

TEST(RateLimiter, SameTimestampSequencesAreDeterministic) {
  // Two limiters fed the identical reservation sequence — including runs
  // of reservations sharing one timestamp — answer with identical waits:
  // the refill math is pure integer microseconds, no hidden state.
  RateLimiter a(mib_per_sec(100), 10 * kMiB);
  RateLimiter b(mib_per_sec(100), 10 * kMiB);
  const SimTime t0 = SimTime::zero() + Duration::seconds(1);
  for (int round = 0; round < 3; ++round) {
    const SimTime now = t0 + Duration::seconds(round * 7);
    for (const Bytes bytes : {3 * kMiB, 10 * kMiB, 7 * kMiB, 10 * kMiB}) {
      EXPECT_EQ(a.reserve(bytes, now), b.reserve(bytes, now));
    }
  }
  // Idle refill is capped at one burst: after a long gap the bucket is
  // full again but never fuller.
  const SimTime later = t0 + Duration::seconds(3600);
  EXPECT_EQ(a.reserve(10 * kMiB, later), Duration::zero());
  EXPECT_EQ(a.reserve(10 * kMiB, later), Duration::zero());  // the debt grant
  EXPECT_GT(a.reserve(10 * kMiB, later), Duration::zero());
}

}  // namespace
}  // namespace ignem
