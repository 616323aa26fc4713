// Failure-resilience tests (paper §III-A5): master and slave crashes in the
// middle of live workloads must degrade performance only, never correctness.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/testbed.h"
#include "workload/swim.h"

namespace ignem {
namespace {

TestbedConfig ignem_config() {
  TestbedConfig config;
  config.mode = RunMode::kIgnem;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 16 * kGiB;
  config.seed = 43;
  return config;
}

/// Same cluster with the full fault-tolerance stack: heartbeat failure
/// detection, re-replication, container requeue, migration rerouting.
TestbedConfig fault_tolerant_config() {
  TestbedConfig config = ignem_config();
  config.fault_tolerance = true;
  config.check_invariants = true;
  return config;
}

std::size_t count_events(Testbed& testbed, TraceEventType type) {
  const auto& events = testbed.trace()->events();
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [type](const TraceEvent& e) { return e.type == type; }));
}

SwimConfig mini_swim() {
  SwimConfig config;
  config.job_count = 20;
  config.total_input = 4 * kGiB;
  config.tail_max = 1 * kGiB;
  config.mean_interarrival = Duration::seconds(2.0);
  config.seed = 6;
  return config;
}

TEST(FailureInjection, MasterCrashMidWorkloadIsSurvivable) {
  Testbed testbed(ignem_config());
  auto jobs = build_swim_workload(testbed, mini_swim());
  // Crash the master 10 s in, restart 2 s later.
  testbed.sim().schedule(Duration::seconds(10),
                         [&] { testbed.ignem_master()->fail(); });
  testbed.sim().schedule(Duration::seconds(12),
                         [&] { testbed.ignem_master()->restart(); });
  testbed.run_workload(std::move(jobs));
  EXPECT_EQ(testbed.metrics().jobs().size(), 20u);
  // All migration memory eventually reclaimed (no leaks across the crash).
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(testbed.datanode(NodeId(i)).cache().used(), 0);
  }
}

TEST(FailureInjection, MasterCrashPurgesSlaveMemoryImmediately) {
  Testbed testbed(ignem_config());
  auto jobs = build_swim_workload(testbed, mini_swim());
  testbed.sim().schedule(Duration::seconds(15), [&] {
    testbed.ignem_master()->fail();
    for (std::int64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(testbed.ignem_slave(NodeId(i))->locked_bytes(), 0)
          << "slave " << i << " kept memory after master failure";
      EXPECT_EQ(testbed.ignem_slave(NodeId(i))->queue_depth(), 0u);
    }
    testbed.ignem_master()->restart();
  });
  testbed.run_workload(std::move(jobs));
  EXPECT_EQ(testbed.metrics().jobs().size(), 20u);
}

TEST(FailureInjection, SlaveProcessRestartMidWorkload) {
  Testbed testbed(ignem_config());
  auto jobs = build_swim_workload(testbed, mini_swim());
  // Restart slave 1's process at t=10 s: its locked pool and the slave's
  // state vanish (the DataNode crash resets its plug-in) but disk data
  // survives, so reads keep working.
  testbed.sim().schedule(Duration::seconds(10), [&] {
    testbed.datanode(NodeId(1)).fail();
    testbed.datanode(NodeId(1)).restart();
  });
  testbed.run_workload(std::move(jobs));
  EXPECT_EQ(testbed.metrics().jobs().size(), 20u);
  EXPECT_EQ(testbed.datanode(NodeId(1)).cache().used(), 0);
}

TEST(FailureInjection, RepeatedMasterCrashes) {
  Testbed testbed(ignem_config());
  auto jobs = build_swim_workload(testbed, mini_swim());
  for (int k = 1; k <= 5; ++k) {
    testbed.sim().schedule(Duration::seconds(5 * k),
                           [&] { testbed.ignem_master()->fail(); });
    testbed.sim().schedule(Duration::seconds(5 * k + 1),
                           [&] { testbed.ignem_master()->restart(); });
  }
  testbed.run_workload(std::move(jobs));
  EXPECT_EQ(testbed.metrics().jobs().size(), 20u);
}

TEST(FailureInjection, CrashOnlySlowsJobsDown) {
  // Performance-only degradation: the crashed run completes but is no
  // faster than the clean run.
  auto run = [](bool crash) {
    Testbed testbed(ignem_config());
    auto jobs = build_swim_workload(testbed, mini_swim());
    if (crash) {
      testbed.sim().schedule(Duration::seconds(8), [&] {
        testbed.ignem_master()->fail();
        testbed.ignem_master()->restart();
      });
    }
    testbed.run_workload(std::move(jobs));
    return testbed.metrics().mean_job_duration_seconds();
  };
  const double clean = run(false);
  const double crashed = run(true);
  EXPECT_GE(crashed, clean * 0.99);
}

TEST(FailureDetection, NodeCrashDetectedByBothControlPlanes) {
  Testbed testbed(fault_tolerant_config());
  testbed.create_file("/input", 1 * kGiB);
  const SimTime crash_at = SimTime::zero() + Duration::seconds(5);
  testbed.sim().schedule(Duration::seconds(5),
                         [&] { testbed.fail_node(NodeId(2)); });
  testbed.sim().run(SimTime::zero() + Duration::seconds(30));

  // The failure detector declared the node dead once, within timeout + one
  // check interval, and both planes follow its verdict.
  EXPECT_FALSE(testbed.namenode().is_node_alive(NodeId(2)));
  EXPECT_TRUE(testbed.resource_manager().is_node_marked_dead(NodeId(2)));
  const Duration bound = kLivenessTimeout + kLivenessCheckInterval;
  std::size_t detections = 0;
  for (const TraceEvent& e : testbed.trace()->events()) {
    if (e.type != TraceEventType::kFaultDetectedDead) continue;
    EXPECT_EQ(e.node, NodeId(2));
    EXPECT_EQ(e.detail, 0);
    EXPECT_LE((e.time - crash_at).to_seconds(), bound.to_seconds() + 1e-9);
    ++detections;
  }
  EXPECT_EQ(detections, 1u);

  // Restart: the next heartbeat readmits the node, once, on both planes.
  testbed.restart_node(NodeId(2));
  testbed.sim().run(SimTime::zero() + Duration::seconds(40));
  EXPECT_TRUE(testbed.namenode().is_node_alive(NodeId(2)));
  EXPECT_FALSE(testbed.resource_manager().is_node_marked_dead(NodeId(2)));
  EXPECT_EQ(count_events(testbed, TraceEventType::kRecoverNodeRejoin), 1u);
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
}

TEST(FailureDetection, DetectionTriggersReReplication) {
  Testbed testbed(fault_tolerant_config());
  const FileId file = testbed.create_file("/input", 640 * kMiB);  // 10 blocks
  testbed.sim().schedule(Duration::seconds(5),
                         [&] { testbed.fail_node(NodeId(0)); });
  testbed.sim().run(SimTime::zero() + Duration::seconds(120));
  // 4 nodes, replication 3: every block had a replica on node 0 with high
  // probability; all of them must be back to 3 live replicas without the
  // node returning.
  EXPECT_GT(testbed.replication_manager().stats().blocks_repaired, 0u);
  for (const BlockId block : testbed.namenode().file(file).blocks) {
    EXPECT_EQ(testbed.namenode().live_locations(block).size(), 3u)
        << "block " << block.value();
  }
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
  EXPECT_EQ(testbed.replica_model_mismatch(), "");
}

TEST(FailureDetection, NodeCrashMidWorkloadCompletesViaDetection) {
  Testbed testbed(fault_tolerant_config());
  auto jobs = build_swim_workload(testbed, mini_swim());
  // Crash node 1 mid-workload; its containers requeue, reads fail over to
  // surviving replicas, and rerouted migrations land elsewhere. Restart it
  // 30 s later and let it rejoin.
  testbed.sim().schedule(Duration::seconds(10),
                         [&] { testbed.fail_node(NodeId(1)); });
  testbed.sim().schedule(Duration::seconds(40),
                         [&] { testbed.restart_node(NodeId(1)); });
  ASSERT_TRUE(testbed.run_workload_limited(std::move(jobs),
                                           Duration::seconds(3600)));
  EXPECT_EQ(testbed.metrics().jobs().size(), 20u);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(testbed.datanode(NodeId(i)).cache().used(), 0) << "node " << i;
  }
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
  EXPECT_EQ(testbed.replica_model_mismatch(), "");
}

TEST(FailureDetection, HeartbeatDelayCausesSpuriousDeathThenCleanRejoin) {
  Testbed testbed(fault_tolerant_config());
  auto jobs = build_swim_workload(testbed, mini_swim());
  // Silence node 2's heartbeats long enough to be declared dead while its
  // processes keep running, then let them resume: the master must order a
  // purge on rejoin so no locked bytes leak.
  testbed.sim().schedule(Duration::seconds(8),
                         [&] { testbed.begin_heartbeat_delay(NodeId(2)); });
  testbed.sim().schedule(Duration::seconds(38),
                         [&] { testbed.end_heartbeat_delay(NodeId(2)); });
  ASSERT_TRUE(testbed.run_workload_limited(std::move(jobs),
                                           Duration::seconds(3600)));
  EXPECT_EQ(testbed.metrics().jobs().size(), 20u);
  EXPECT_GE(count_events(testbed, TraceEventType::kFaultDetectedDead), 1u);
  EXPECT_GE(count_events(testbed, TraceEventType::kRecoverNodeRejoin), 1u);
  EXPECT_TRUE(testbed.namenode().is_node_alive(NodeId(2)));
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(testbed.datanode(NodeId(i)).cache().used(), 0) << "node " << i;
  }
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
}

TEST(FailureDetection, DiskFailStopFailsOverToOtherReplicas) {
  Testbed testbed(fault_tolerant_config());
  auto jobs = build_swim_workload(testbed, mini_swim());
  testbed.sim().schedule(Duration::seconds(10),
                         [&] { testbed.begin_disk_fail_stop(NodeId(0)); });
  testbed.sim().schedule(Duration::seconds(35),
                         [&] { testbed.end_disk_fail_stop(NodeId(0)); });
  ASSERT_TRUE(testbed.run_workload_limited(std::move(jobs),
                                           Duration::seconds(3600)));
  EXPECT_EQ(testbed.metrics().jobs().size(), 20u);
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
}

}  // namespace
}  // namespace ignem
