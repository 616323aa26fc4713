#include "cluster/resource_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/testbed.h"
#include "sim/simulator.h"

namespace ignem {
namespace {

ClusterConfig small_cluster(std::size_t nodes, int slots) {
  ClusterConfig c;
  c.node_count = nodes;
  c.slots_per_node = slots;
  c.heartbeat_interval = Duration::seconds(3.0);
  c.locality_delay = Duration::seconds(3.0);
  c.container_launch = Duration::zero();
  return c;
}

TEST(NodeManagerTest, SlotAccounting) {
  NodeManager nm(NodeId(0), 2);
  EXPECT_EQ(nm.free_slots(), 2);
  nm.allocate();
  nm.allocate();
  EXPECT_EQ(nm.free_slots(), 0);
  EXPECT_THROW(nm.allocate(), CheckFailure);
  nm.release();
  EXPECT_EQ(nm.free_slots(), 1);
  nm.set_alive(false);
  EXPECT_EQ(nm.free_slots(), 0);  // dead nodes offer nothing
}

TEST(ResourceManager, AllocationWaitsForHeartbeat) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(1, 4));
  double allocated_at = -1;
  ContainerRequest request;
  request.job = JobId(1);
  request.on_allocated = [&](const ContainerGrant&) { allocated_at = sim.now().to_seconds(); };
  rm.request_container(std::move(request));
  sim.run(SimTime::zero() + Duration::seconds(10));
  // Single node's first heartbeat is at one full interval (3 s).
  EXPECT_NEAR(allocated_at, 3.0, 1e-6);
}

TEST(ResourceManager, HeartbeatsStaggeredAcrossNodes) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(4, 1));
  std::vector<double> times;
  for (int i = 0; i < 4; ++i) {
    ContainerRequest request;
    request.job = JobId(1);
    request.on_allocated = [&](const ContainerGrant&) {
      times.push_back(sim.now().to_seconds());
    };
    rm.request_container(std::move(request));
  }
  sim.run(SimTime::zero() + Duration::seconds(4));
  ASSERT_EQ(times.size(), 4u);
  // First beats at 0.75, 1.5, 2.25, 3.0 s.
  EXPECT_NEAR(times[0], 0.75, 1e-6);
  EXPECT_NEAR(times[3], 3.0, 1e-6);
}

TEST(ResourceManager, PrefersRequestedNode) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(4, 1));
  NodeId got = NodeId::invalid();
  ContainerRequest request;
  request.job = JobId(1);
  request.preferred = {NodeId(3)};
  request.on_allocated = [&](const ContainerGrant& grant) { got = grant.node; };
  rm.request_container(std::move(request));
  sim.run(SimTime::zero() + Duration::seconds(2));
  // Nodes 0..2 beat first but must be skipped (locality delay not expired).
  EXPECT_FALSE(got.valid());
  sim.run(SimTime::zero() + Duration::seconds(3.1));
  EXPECT_EQ(got, NodeId(3));
}

TEST(ResourceManager, DelaySchedulingGivesUpLocality) {
  Simulator sim;
  ClusterConfig config = small_cluster(2, 1);
  config.locality_delay = Duration::seconds(4.0);
  ResourceManager rm(sim, config);
  // Fill node 1 (the preferred node) so the request cannot go there.
  ContainerRequest filler;
  filler.job = JobId(1);
  filler.preferred = {NodeId(1)};
  filler.on_allocated = [](const ContainerGrant&) {};
  rm.request_container(std::move(filler));

  NodeId got = NodeId::invalid();
  double when = -1;
  ContainerRequest request;
  request.job = JobId(2);
  request.preferred = {NodeId(1)};
  request.on_allocated = [&](const ContainerGrant& grant) {
    got = grant.node;
    when = sim.now().to_seconds();
  };
  rm.request_container(std::move(request));

  sim.run(SimTime::zero() + Duration::seconds(20));
  EXPECT_EQ(got, NodeId(0));  // fell back to the non-preferred node
  EXPECT_GE(when, 4.0);       // but only after the locality delay
}

TEST(ResourceManager, ReleaseMakesSlotVisibleNextHeartbeat) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(1, 1));
  ContainerGrant first;
  ContainerRequest a;
  a.job = JobId(1);
  a.on_allocated = [&](const ContainerGrant& grant) { first = grant; };
  rm.request_container(std::move(a));

  double second_at = -1;
  ContainerRequest b;
  b.job = JobId(2);
  b.on_allocated = [&](const ContainerGrant&) { second_at = sim.now().to_seconds(); };
  rm.request_container(std::move(b));

  sim.run(SimTime::zero() + Duration::seconds(3.5));
  ASSERT_EQ(first.node, NodeId(0));
  EXPECT_EQ(second_at, -1);  // no free slot yet
  rm.release_container(first);
  sim.run(SimTime::zero() + Duration::seconds(10));
  EXPECT_NEAR(second_at, 6.0, 1e-6);  // the next beat after release
}

TEST(ResourceManager, DeadNodeStopsAllocating) {
  Simulator sim;
  const ClusterConfig config = small_cluster(2, 1);
  ResourceManager rm(sim, config);
  // Failure detection declares node 0 dead; the RM follows the verdict.
  rm.declare_node_dead(NodeId(0));
  ASSERT_TRUE(rm.is_node_marked_dead(NodeId(0)));
  ASSERT_FALSE(rm.is_node_marked_dead(NodeId(1)));
  std::vector<NodeId> allocated;
  for (int i = 0; i < 2; ++i) {
    ContainerRequest request;
    request.job = JobId(1);
    request.on_allocated = [&](const ContainerGrant& grant) { allocated.push_back(grant.node); };
    rm.request_container(std::move(request));
  }
  sim.run(SimTime::zero() + Duration::seconds(30));
  ASSERT_EQ(allocated.size(), 1u);  // only node 1 has capacity
  EXPECT_EQ(allocated[0], NodeId(1));
  EXPECT_EQ(rm.pending_requests(), 1u);
  // Readmitted, node 0 takes the waiting request at its next beat.
  rm.readmit_node(NodeId(0));
  EXPECT_FALSE(rm.is_node_marked_dead(NodeId(0)));
  sim.run(SimTime::zero() + Duration::seconds(33));
  ASSERT_EQ(allocated.size(), 2u);
  EXPECT_EQ(allocated[1], NodeId(0));
}

// Heartbeat silencers nest: a crash (fail_node .. restart_node), a
// heartbeat-delay window and an unrouted partition, on one node, in every
// order of their six begin and end steps that begins each before it ends
// (90 orders). The beat stops at the first begin and resumes once the
// last open silencer lifts, its first beat one interval later, so a
// restart inside an open window stays silent. Steps are 5 s apart, off
// the 3 s beat grid.
TEST(ResourceManager, HeartbeatSilencersNestInEveryOrder) {
  constexpr int kSteps = 6;  // step 2k begins silencer k, step 2k+1 ends it
  std::vector<int> order = {0, 1, 2, 3, 4, 5};
  int orders = 0;
  do {
    bool valid = true;
    for (int k = 0; k < 3; ++k) {
      const auto pos = [&](int step) {
        return std::find(order.begin(), order.end(), step) - order.begin();
      };
      if (pos(2 * k) > pos(2 * k + 1)) valid = false;
    }
    if (!valid) continue;
    ++orders;
    SCOPED_TRACE("order " + std::to_string(orders));
    TestbedConfig config;
    config.cluster = small_cluster(1, 1);
    Testbed testbed(config);
    Simulator& sim = testbed.sim();
    std::vector<SimTime> beats;
    testbed.resource_manager().set_heartbeat_listener(
        [&](NodeId) { beats.push_back(sim.now()); });
    const NodeId node(0);
    const std::function<void()> steps[kSteps] = {
        [&] { testbed.fail_node(node); },
        [&] { testbed.restart_node(node); },
        [&] { testbed.begin_heartbeat_delay(node); },
        [&] { testbed.end_heartbeat_delay(node); },
        [&] { testbed.begin_network_partition(node, /*variant=*/0); },
        [&] { testbed.end_network_partition(node, /*variant=*/0); },
    };
    const Duration interval = config.cluster.heartbeat_interval;
    const SimTime end = SimTime::zero() + Duration::seconds(50);
    std::vector<SimTime> expected;
    for (SimTime t = SimTime::zero() + interval;
         t < SimTime::zero() + Duration::seconds(10.5); t = t + interval) {
      expected.push_back(t);  // the node's first beat lands at one interval
    }
    int open = 0;
    for (int i = 0; i < kSteps; ++i) {
      const Duration at = Duration::seconds(10.5 + 5.0 * i);
      sim.schedule(at, steps[order[static_cast<std::size_t>(i)]]);
      const bool begins = order[static_cast<std::size_t>(i)] % 2 == 0;
      open += begins ? 1 : -1;
      if (open > 0) continue;
      // The last lift: beats resume one interval later, until the next
      // step (5 s on) or the end.
      const SimTime next = i + 1 < kSteps
                               ? SimTime::zero() + at + Duration::seconds(5)
                               : end;
      for (SimTime t = SimTime::zero() + at + interval; t < next;
           t = t + interval) {
        expected.push_back(t);
      }
    }
    sim.run(end);
    EXPECT_EQ(beats, expected);
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 90);
}

TEST(ResourceManager, ContainerLaunchDelayApplied) {
  Simulator sim;
  ClusterConfig config = small_cluster(1, 1);
  config.container_launch = Duration::seconds(1.0);
  ResourceManager rm(sim, config);
  double at = -1;
  ContainerRequest request;
  request.job = JobId(1);
  request.on_allocated = [&](const ContainerGrant&) { at = sim.now().to_seconds(); };
  rm.request_container(std::move(request));
  sim.run(SimTime::zero() + Duration::seconds(10));
  EXPECT_NEAR(at, 4.0, 1e-6);  // 3 s heartbeat + 1 s launch
}

TEST(ResourceManager, JobLivenessOracle) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(1, 1));
  EXPECT_FALSE(rm.is_job_running(JobId(5)));
  rm.register_job(JobId(5));
  EXPECT_TRUE(rm.is_job_running(JobId(5)));
  rm.complete_job(JobId(5));
  EXPECT_FALSE(rm.is_job_running(JobId(5)));
}

TEST(ResourceManager, FifoAmongEquallyEligible) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(1, 2));
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    ContainerRequest request;
    request.job = JobId(1);
    request.on_allocated = [&order, i](const ContainerGrant&) { order.push_back(i); };
    rm.request_container(std::move(request));
  }
  sim.run(SimTime::zero() + Duration::seconds(4));
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace ignem
