// Unit tests for the fault subsystem: plan generation, injector window
// refcounting, and the disk/network degradation windows applied through a
// Testbed.
#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "fault/fault_plan.h"
#include "fault/fault_target.h"
#include "sim/simulator.h"

namespace ignem {
namespace {

TEST(FaultPlan, RandomIsDeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  const FaultPlan plan_a = FaultPlan::random(a, 8, 12, Duration::seconds(60),
                                             Duration::seconds(5),
                                             Duration::seconds(20));
  const FaultPlan plan_b = FaultPlan::random(b, 8, 12, Duration::seconds(60),
                                             Duration::seconds(5),
                                             Duration::seconds(20));
  const FaultPlan plan_c = FaultPlan::random(c, 8, 12, Duration::seconds(60),
                                             Duration::seconds(5),
                                             Duration::seconds(20));
  EXPECT_EQ(plan_a.to_string(), plan_b.to_string());
  EXPECT_NE(plan_a.to_string(), plan_c.to_string());
}

TEST(FaultPlan, RandomRespectsBounds) {
  Rng rng(3);
  const FaultPlan plan = FaultPlan::random(rng, 4, 50, Duration::seconds(60),
                                           Duration::seconds(5),
                                           Duration::seconds(20));
  ASSERT_EQ(plan.faults.size(), 50u);
  for (const FaultSpec& fault : plan.faults) {
    EXPECT_GE(fault.at, Duration::zero());
    EXPECT_LT(fault.at, Duration::seconds(60));
    EXPECT_GE(fault.duration, Duration::seconds(5));
    EXPECT_LE(fault.duration, Duration::seconds(20));
    if (fault.kind != FaultKind::kMasterCrash) {
      ASSERT_TRUE(fault.node.valid());
      EXPECT_LT(fault.node.value(), 4);
    }
    EXPECT_GE(fault.severity, 1.0);
  }
}

TEST(FaultPlan, DefaultMaskReproducesLegacyPlansByteForByte) {
  // Plans drawn before the corruption kinds existed must not change: the
  // default mask (the seven loud kinds) consumes the Rng identically to an
  // explicit mask, and never emits a corruption fault.
  Rng implicit_rng(21), explicit_rng(21);
  const FaultPlan implicit_plan =
      FaultPlan::random(implicit_rng, 6, 40, Duration::seconds(120),
                        Duration::seconds(5), Duration::seconds(25));
  const FaultPlan explicit_plan = FaultPlan::random(
      explicit_rng, 6, 40, Duration::seconds(120), Duration::seconds(5),
      Duration::seconds(25), kLoudFaultKinds);
  EXPECT_EQ(implicit_plan.to_string(), explicit_plan.to_string());
  for (const FaultSpec& fault : implicit_plan.faults) {
    EXPECT_NE(fault.kind, FaultKind::kBlockCorrupt);
    EXPECT_NE(fault.kind, FaultKind::kCacheCorrupt);
  }
}

TEST(FaultPlan, MaskRestrictsDrawnKinds) {
  Rng rng(5);
  const FaultPlan plan = FaultPlan::random(
      rng, 4, 30, Duration::seconds(60), Duration::seconds(5),
      Duration::seconds(20),
      fault_kind_bit(FaultKind::kBlockCorrupt) |
          fault_kind_bit(FaultKind::kCacheCorrupt));
  ASSERT_EQ(plan.faults.size(), 30u);
  for (const FaultSpec& fault : plan.faults) {
    EXPECT_TRUE(fault.kind == FaultKind::kBlockCorrupt ||
                fault.kind == FaultKind::kCacheCorrupt);
  }
}

TEST(FaultPlan, AllKindsMaskDrawsCorruptionFaults) {
  Rng rng(11);
  const FaultPlan plan = FaultPlan::random(
      rng, 4, 200, Duration::seconds(300), Duration::seconds(5),
      Duration::seconds(20), kAllFaultKinds);
  std::size_t corruption = 0;
  for (const FaultSpec& fault : plan.faults) {
    if (fault.kind == FaultKind::kBlockCorrupt ||
        fault.kind == FaultKind::kCacheCorrupt) {
      ++corruption;
    }
  }
  // 2 of 9 kinds over 200 draws: overwhelmingly likely to appear.
  EXPECT_GT(corruption, 0u);
}

/// Records begin/end calls so window refcounting is observable.
class RecordingTarget : public FaultTarget {
 public:
  void fail_node(NodeId node) override { log("fail", node); }
  void restart_node(NodeId node) override { log("restart", node); }
  void crash_master() override { log("master-crash", NodeId::invalid()); }
  void restart_master() override { log("master-restart", NodeId::invalid()); }
  void crash_slave(NodeId node) override { log("slave-crash", node); }
  void begin_disk_fail_stop(NodeId node) override { log("disk-stop", node); }
  void end_disk_fail_stop(NodeId node) override { log("disk-ok", node); }
  void begin_disk_fail_slow(NodeId node, double) override {
    log("disk-slow", node);
  }
  void end_disk_fail_slow(NodeId node) override { log("disk-fast", node); }
  void begin_network_degrade(NodeId node, double) override {
    log("net-slow", node);
  }
  void end_network_degrade(NodeId node) override { log("net-ok", node); }
  void begin_heartbeat_delay(NodeId node) override { log("hb-stop", node); }
  void end_heartbeat_delay(NodeId node) override { log("hb-ok", node); }
  void begin_network_partition(NodeId node, int variant) override {
    log("part-" + std::to_string(variant), node);
  }
  void end_network_partition(NodeId node, int variant) override {
    log("heal-" + std::to_string(variant), node);
  }
  void begin_rack_partition(NodeId node) override { log("rack-part", node); }
  void end_rack_partition(NodeId node) override { log("rack-heal", node); }
  void corrupt_block(NodeId node) override { log("corrupt", node); }
  void corrupt_cached_block(NodeId node) override {
    log("cache-corrupt", node);
  }
  std::size_t node_count() const override { return 4; }

  std::vector<std::string> calls;

 private:
  void log(const std::string& what, NodeId node) {
    calls.push_back(what + "@" + std::to_string(node.valid() ? node.value()
                                                             : -1));
  }
};

TEST(FaultInjector, OverlappingWindowsCollapseToOutermostPair) {
  Simulator sim;
  RecordingTarget target;
  FaultPlan plan;
  // Two overlapping crash windows on node 1: [2, 10) and [5, 20).
  plan.faults.push_back({FaultKind::kNodeCrash, Duration::seconds(2),
                         Duration::seconds(8), NodeId(1)});
  plan.faults.push_back({FaultKind::kNodeCrash, Duration::seconds(5),
                         Duration::seconds(15), NodeId(1)});
  FaultInjector injector(sim, target, plan);
  injector.arm();
  sim.run();
  EXPECT_EQ(injector.injected(), 2u);
  // One fail (at t=2) and one restart (at t=20): the inner window is folded.
  EXPECT_EQ(target.calls,
            (std::vector<std::string>{"fail@1", "restart@1"}));
}

TEST(FaultInjector, DisjointWindowsEachReachTheTarget) {
  Simulator sim;
  RecordingTarget target;
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kDiskFailStop, Duration::seconds(1),
                         Duration::seconds(2), NodeId(0)});
  plan.faults.push_back({FaultKind::kDiskFailStop, Duration::seconds(10),
                         Duration::seconds(2), NodeId(0)});
  plan.faults.push_back({FaultKind::kSlaveCrash, Duration::seconds(5),
                         Duration::seconds(99), NodeId(2)});
  FaultInjector injector(sim, target, plan);
  injector.arm();
  sim.run();
  EXPECT_EQ(target.calls,
            (std::vector<std::string>{"disk-stop@0", "disk-ok@0",
                                      "slave-crash@2", "disk-stop@0",
                                      "disk-ok@0"}));
}

TEST(FaultInjector, MasterCrashWindowsRefcountAcrossNodes) {
  Simulator sim;
  RecordingTarget target;
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kMasterCrash, Duration::seconds(1),
                         Duration::seconds(10), NodeId::invalid()});
  plan.faults.push_back({FaultKind::kMasterCrash, Duration::seconds(3),
                         Duration::seconds(3), NodeId::invalid()});
  FaultInjector injector(sim, target, plan);
  injector.arm();
  sim.run();
  EXPECT_EQ(target.calls, (std::vector<std::string>{"master-crash@-1",
                                                    "master-restart@-1"}));
}

TEST(FaultInjector, CorruptionFaultsArePointEventsWithNoRecovery) {
  Simulator sim;
  RecordingTarget target;
  FaultPlan plan;
  // Long durations that must be ignored: corruption has no recovery event.
  plan.faults.push_back({FaultKind::kBlockCorrupt, Duration::seconds(2),
                         Duration::seconds(50), NodeId(1)});
  plan.faults.push_back({FaultKind::kCacheCorrupt, Duration::seconds(4),
                         Duration::seconds(50), NodeId(3)});
  FaultInjector injector(sim, target, plan);
  injector.arm();
  sim.run();
  EXPECT_EQ(injector.injected(), 2u);
  EXPECT_EQ(target.calls,
            (std::vector<std::string>{"corrupt@1", "cache-corrupt@3"}));
}

// The fault markers are the trace's one record of which fault was injected
// where. One window of every FaultKind, each alone in time, driven through
// the injector into a traced, invariant-checked Ignem Testbed: each begin
// and end marker appears once, at its window's edge, on the faulted node,
// with the detail the catalog in trace_event.h gives it.
TEST(FaultInjector, EveryKindMarksItsWindowInTheTrace) {
  TestbedConfig config;
  config.mode = RunMode::kIgnem;
  config.cluster.node_count = 4;
  config.rack_count = 2;
  config.replication = 2;
  config.fault_tolerance = true;
  config.enable_trace = true;
  config.check_invariants = true;
  Testbed testbed(config);
  // Every replica locked in its node's pool, so the cached-copy fault lands.
  const FileId file = testbed.create_file("/f", 4 * kDefaultBlockSize);
  testbed.preload({file});
  const NodeId holder = testbed.namenode()
                            .block(testbed.namenode().file(file).blocks[0])
                            .replicas[0];

  struct Marker {
    TraceEventType type;
    NodeId node;
    std::int64_t detail;
    int at_s;
  };
  FaultPlan plan;
  std::vector<Marker> want;
  // One window of `kind` on `node`: its begin marker and, unless it is a
  // point fault with no recovery, its end marker on the same node.
  const auto window = [&](FaultKind kind, NodeId node, int at_s, int for_s,
                          double severity, TraceEventType begin,
                          std::int64_t begin_detail,
                          std::optional<TraceEventType> end = std::nullopt,
                          std::int64_t end_detail = 0) {
    plan.faults.push_back({kind, Duration::seconds(at_s),
                           Duration::seconds(for_s), node, severity});
    want.push_back({begin, node, begin_detail, at_s});
    if (end) want.push_back({*end, node, end_detail, at_s + for_s});
  };
  // The corruption faults come first: a crash reclaims the locked pool.
  window(FaultKind::kCacheCorrupt, holder, 1, 0, 1.0,
         TraceEventType::kFaultBlockCorrupt, 1);
  window(FaultKind::kBlockCorrupt, holder, 2, 0, 1.0,
         TraceEventType::kFaultBlockCorrupt, 0);
  window(FaultKind::kNodeCrash, NodeId(1), 10, 10, 1.0,
         TraceEventType::kFaultNodeCrash, 0,
         TraceEventType::kRecoverNodeRestart);
  window(FaultKind::kMasterCrash, NodeId::invalid(), 30, 10, 1.0,
         TraceEventType::kFaultMasterCrash, 0,
         TraceEventType::kRecoverMasterRestart);
  // A point fault: the supervisor restarts the slave at once.
  window(FaultKind::kSlaveCrash, NodeId(2), 50, 0, 1.0,
         TraceEventType::kFaultSlaveCrash, 0,
         TraceEventType::kRecoverSlaveRestart);
  window(FaultKind::kDiskFailStop, NodeId(3), 60, 10, 1.0,
         TraceEventType::kFaultDiskFailStop, 0, TraceEventType::kRecoverDisk,
         0);
  // Severity sets the hog-stream count the begin marker carries.
  window(FaultKind::kDiskFailSlow, NodeId(0), 80, 10, 3.0,
         TraceEventType::kFaultDiskFailSlow, 3, TraceEventType::kRecoverDisk,
         1);
  window(FaultKind::kNetworkDegrade, NodeId(1), 100, 10, 2.0,
         TraceEventType::kFaultNetworkDegrade, 2,
         TraceEventType::kRecoverNetwork);
  window(FaultKind::kHeartbeatDelay, NodeId(2), 120, 10, 1.0,
         TraceEventType::kFaultHeartbeatDelay, 0,
         TraceEventType::kRecoverHeartbeat);
  // Severity 1 picks the outbound-only variant.
  window(FaultKind::kNetworkPartition, NodeId(3), 140, 10, 1.0,
         TraceEventType::kPartitionStart, 1, TraceEventType::kPartitionHeal,
         1);
  window(FaultKind::kRackPartition, NodeId(0), 160, 10, 1.0,
         TraceEventType::kPartitionStart, 3, TraceEventType::kPartitionHeal,
         3);

  FaultInjector injector(testbed.sim(), testbed, plan);
  injector.arm();
  testbed.sim().run(SimTime::zero() + Duration::seconds(200));
  EXPECT_EQ(injector.injected(), plan.faults.size());

  const std::vector<TraceEvent>& events = testbed.trace()->events();
  for (const Marker& m : want) {
    SCOPED_TRACE(::testing::Message() << trace_event_name(m.type) << " on node "
                                      << m.node << " at " << m.at_s << " s");
    std::vector<TraceEvent> found;
    for (const TraceEvent& e : events) {
      if (e.type == m.type && e.node == m.node && e.detail == m.detail) {
        found.push_back(e);
      }
    }
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].time, SimTime::zero() + Duration::seconds(m.at_s));
  }
  // No marker beyond those: each type appears as often as the plan asks.
  for (const Marker& m : want) {
    const auto planned = std::count_if(
        want.begin(), want.end(),
        [&](const Marker& other) { return other.type == m.type; });
    const auto traced = std::count_if(
        events.begin(), events.end(),
        [&](const TraceEvent& e) { return e.type == m.type; });
    EXPECT_EQ(traced, planned) << trace_event_name(m.type);
  }
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
}

TestbedConfig small_testbed() {
  TestbedConfig config;
  config.mode = RunMode::kHdfs;
  config.cluster.node_count = 2;
  config.replication = 2;
  config.fault_tolerance = true;
  return config;
}

TEST(FaultWindows, DiskFailSlowThrottlesReads) {
  // Measure one 64 MiB cold read with and without a fail-slow window.
  auto read_seconds = [](bool slow) {
    Testbed testbed(small_testbed());
    testbed.create_file("/f", 64 * kMiB);
    if (slow) testbed.begin_disk_fail_slow(NodeId(0), 4.0);
    const BlockId block =
        testbed.namenode().file(testbed.namenode().lookup("/f")).blocks[0];
    const NodeId holder = testbed.namenode().block(block).replicas[0];
    double t = -1;
    testbed.datanode(holder).read_block(
        block, 64 * kMiB, JobId(1), [&](const BlockReadResult& r) {
          ASSERT_FALSE(r.failed);
          t = r.duration.to_seconds();
        });
    testbed.sim().run(SimTime::zero() + Duration::seconds(300));
    return t;
  };
  const double clean = read_seconds(false);
  const double degraded = read_seconds(true);
  ASSERT_GT(clean, 0.0);
  ASSERT_GT(degraded, 0.0);
  // Four hog streams on an HDD channel: well over 4x slower.
  EXPECT_GT(degraded, clean * 4.0);
}

TEST(FaultWindows, DiskRecoversAfterWindowEnds) {
  Testbed testbed(small_testbed());
  testbed.create_file("/f", 64 * kMiB);
  const BlockId block =
      testbed.namenode().file(testbed.namenode().lookup("/f")).blocks[0];
  const NodeId holder = testbed.namenode().block(block).replicas[0];
  testbed.begin_disk_fail_slow(holder, 8.0);
  testbed.end_disk_fail_slow(holder);
  EXPECT_EQ(testbed.datanode(holder).primary_device().active_requests(), 0u);
  double t = -1;
  testbed.datanode(holder).read_block(
      block, 64 * kMiB, JobId(1),
      [&](const BlockReadResult& r) { t = r.duration.to_seconds(); });
  testbed.sim().run(SimTime::zero() + Duration::seconds(60));
  // Back at full speed: a 64 MiB HDD read takes well under 2 s.
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 2.0);
}

TEST(FaultWindows, NetworkDegradeSlowsTransfers) {
  auto transfer_seconds = [](bool degrade) {
    Testbed testbed(small_testbed());
    if (degrade) testbed.begin_network_degrade(NodeId(0), 4.0);
    double done = -1;
    testbed.network().transfer(NodeId(0), NodeId(1), 256 * kMiB, [&] {
      done = testbed.sim().now().to_seconds();
    });
    testbed.sim().run(SimTime::zero() + Duration::seconds(300));
    return done;
  };
  const double clean = transfer_seconds(false);
  const double degraded = transfer_seconds(true);
  ASSERT_GT(clean, 0.0);
  ASSERT_GT(degraded, 0.0);
  EXPECT_GT(degraded, clean * 3.0);  // 4 hogs: ~5x less per-flow bandwidth
}

}  // namespace
}  // namespace ignem
