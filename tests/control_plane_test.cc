// The control plane as a fault domain, and partitions that cut running
// traffic: RpcRouter delivery/retry/deadline semantics, oneway heartbeat
// drops, partition-severed point-to-point and fan-in transfers with
// partial-progress refunds, and end-to-end routed Testbed runs where
// cutting the control node's rack silences the cluster's brain — jobs must
// still terminate and the heal must leave no excess replicas or leaked
// bytes. The routed tests run with the router ON; default-off bit-identity
// is pinned by the golden-trace suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/testbed.h"
#include "net/network.h"
#include "net/rpc.h"
#include "obs/trace_recorder.h"
#include "workload/swim.h"

namespace ignem {
namespace {

// ---------------------------------------------------------------------------
// RpcRouter unit semantics

RpcConfig fast_rpc() {
  RpcConfig config;
  config.control_node = NodeId(0);
  config.latency = Duration::millis(1);
  config.deadline = Duration::seconds(1.0);
  config.max_retries = 100;  // deadline-bound unless a test narrows it
  config.backoff_base = Duration::millis(100);
  config.backoff_cap = Duration::seconds(2.0);
  return config;
}

TEST(Rpc, CallDeliversAfterExactlyOneLatency) {
  Simulator sim;
  Network net(sim, 2, NetworkProfile{});
  RpcRouter router(sim, net, fast_rpc());
  SimTime delivered_at = SimTime::zero();
  router.call(NodeId(0), NodeId(1), [&] { delivered_at = sim.now(); });
  sim.run(SimTime::zero() + Duration::seconds(1));
  EXPECT_EQ(delivered_at, SimTime::zero() + Duration::millis(1));
  EXPECT_EQ(router.stats().calls, 1u);
  EXPECT_EQ(router.stats().delivered, 1u);
  EXPECT_EQ(router.stats().retries, 0u);
}

TEST(Rpc, OnewayDroppedAtSendAndInFlight) {
  Simulator sim;
  Network net(sim, 2, NetworkProfile{});
  RpcRouter router(sim, net, fast_rpc());
  int delivered = 0;
  // Cut at send time: dropped immediately, no event scheduled.
  net.reachability().block_outbound(NodeId(1));
  router.oneway(NodeId(1), NodeId(0), [&] { ++delivered; });
  net.reachability().unblock_outbound(NodeId(1));
  // Cut lands while the datagram is in flight: eaten at delivery time.
  router.oneway(NodeId(1), NodeId(0), [&] { ++delivered; });
  sim.schedule(Duration::micros(500),
               [&] { net.reachability().block_outbound(NodeId(1)); });
  sim.run(SimTime::zero() + Duration::seconds(1));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(router.stats().oneways, 2u);
  EXPECT_EQ(router.stats().oneways_dropped, 2u);
}

TEST(Rpc, CallRetriesWithBackoffUntilTheCutHeals) {
  Simulator sim;
  Network net(sim, 2, NetworkProfile{});
  RpcRouter router(sim, net, fast_rpc());
  net.reachability().block_inbound(NodeId(1));
  sim.schedule(Duration::millis(150),
               [&] { net.reachability().unblock_inbound(NodeId(1)); });
  SimTime delivered_at = SimTime::zero();
  bool failed = false;
  router.call(NodeId(0), NodeId(1), [&] { delivered_at = sim.now(); },
              [&](RpcOutcome) { failed = true; });
  sim.run(SimTime::zero() + Duration::seconds(2));
  // Attempt 1 fires at 1ms (cut), attempt 2 at 102ms (cut), attempt 3 at
  // 303ms — past the 150ms heal, so it lands. Backoff doubled: 100, 200.
  EXPECT_FALSE(failed);
  EXPECT_EQ(delivered_at, SimTime::zero() + Duration::millis(303));
  EXPECT_EQ(router.stats().delivered, 1u);
  EXPECT_EQ(router.stats().retries, 2u);
  EXPECT_EQ(router.stats().timeouts, 0u);
}

TEST(Rpc, CallTimesOutBeforeTheDeadlineWouldPass) {
  Simulator sim;
  Network net(sim, 2, NetworkProfile{});
  TraceRecorder trace;
  trace.set_clock([&] { return sim.now(); });
  RpcRouter router(sim, net, fast_rpc());
  router.set_trace(&trace);
  net.reachability().block_inbound(NodeId(1));  // never heals
  bool delivered = false;
  RpcOutcome outcome = RpcOutcome::kOk;
  SimTime failed_at = SimTime::zero();
  router.call(NodeId(0), NodeId(1), [&] { delivered = true; },
              [&](RpcOutcome o) {
                outcome = o;
                failed_at = sim.now();
              });
  sim.run(SimTime::zero() + Duration::seconds(5));
  EXPECT_FALSE(delivered);
  EXPECT_EQ(outcome, RpcOutcome::kTimeout);
  // The router gives up as soon as the *next* attempt could not land within
  // the deadline, so the failure is reported before start + deadline.
  EXPECT_LT(failed_at, SimTime::zero() + Duration::seconds(1.0));
  EXPECT_EQ(router.stats().timeouts, 1u);
  EXPECT_EQ(router.stats().delivered, 0u);
  const auto& events = trace.events();
  const auto it = std::find_if(
      events.begin(), events.end(),
      [](const TraceEvent& e) { return e.type == TraceEventType::kRpcTimeout; });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->detail, static_cast<std::int64_t>(RpcOutcome::kTimeout));
}

TEST(Rpc, CallUnreachableWhenRetryBudgetExhausts) {
  Simulator sim;
  Network net(sim, 2, NetworkProfile{});
  RpcConfig config = fast_rpc();
  config.deadline = Duration::seconds(60.0);  // budget binds, not the clock
  config.max_retries = 2;
  config.backoff_base = Duration::millis(10);
  config.backoff_cap = Duration::millis(40);
  RpcRouter router(sim, net, config);
  net.reachability().block_inbound(NodeId(1));
  RpcOutcome outcome = RpcOutcome::kOk;
  SimTime failed_at = SimTime::zero();
  router.call(NodeId(0), NodeId(1), [] {}, [&](RpcOutcome o) {
    outcome = o;
    failed_at = sim.now();
  });
  sim.run(SimTime::zero() + Duration::seconds(1));
  // Attempts at 1ms, 12ms (after 10ms backoff), 33ms (after 20ms): three
  // sends = initial + max_retries, then the typed give-up.
  EXPECT_EQ(outcome, RpcOutcome::kUnreachable);
  EXPECT_EQ(failed_at, SimTime::zero() + Duration::millis(33));
  EXPECT_EQ(router.stats().retries, 2u);
  EXPECT_EQ(router.stats().unreachable, 1u);
}

TEST(Rpc, BackoffIsCappedExponential) {
  Simulator sim;
  Network net(sim, 2, NetworkProfile{});
  RpcConfig config = fast_rpc();
  config.backoff_base = Duration::millis(100);
  config.backoff_cap = Duration::millis(300);
  RpcRouter router(sim, net, config);
  net.reachability().block_inbound(NodeId(1));
  // Heal late enough to see the cap bind twice: attempts fire at 1ms,
  // 102ms (+100), 303ms (+200), 604ms (+300 capped), 905ms (+300 capped).
  sim.schedule(Duration::millis(850),
               [&] { net.reachability().unblock_inbound(NodeId(1)); });
  SimTime delivered_at = SimTime::zero();
  router.call(NodeId(0), NodeId(1), [&] { delivered_at = sim.now(); });
  sim.run(SimTime::zero() + Duration::seconds(2));
  EXPECT_EQ(delivered_at, SimTime::zero() + Duration::millis(905));
  EXPECT_EQ(router.stats().retries, 4u);
}

// ---------------------------------------------------------------------------
// Partition-severed transfers (Network unit)

NetworkProfile slow_net() {
  NetworkProfile profile;
  profile.nic_bw = mib_per_sec(100);
  return profile;
}

TEST(Sever, MidFlightCutRefundsTheUnservedRemainder) {
  Simulator sim;
  Network net(sim, 2, slow_net());
  TraceRecorder trace;
  trace.set_clock([&] { return sim.now(); });
  net.set_trace(&trace);
  bool completed = false;
  bool severed = false;
  net.transfer(NodeId(0), NodeId(1), 200 * kMiB, [&] { completed = true; },
               [&] { severed = true; });
  // 200 MiB at 100 MiB/s: two seconds of stream. Cut halfway through.
  sim.schedule(Duration::seconds(1), [&] {
    net.reachability().block_outbound(NodeId(0));
    net.sever_partitioned_transfers();
  });
  sim.run(SimTime::zero() + Duration::seconds(5));
  EXPECT_TRUE(severed);
  EXPECT_FALSE(completed);
  EXPECT_EQ(net.transfers_severed(), 1u);
  const auto& events = trace.events();
  const auto it = std::find_if(events.begin(), events.end(),
                               [](const TraceEvent& e) {
                                 return e.type == TraceEventType::kTransferSevered;
                               });
  ASSERT_NE(it, events.end());
  const Bytes refunded = it->bytes;
  const auto progressed = static_cast<Bytes>(it->value);
  // Conservation: delivered progress plus the refund is exactly the
  // request, and roughly half the stream had moved when the cut landed.
  EXPECT_EQ(refunded + progressed, 200 * kMiB);
  EXPECT_GT(progressed, 80 * kMiB);
  EXPECT_LT(progressed, 120 * kMiB);
}

TEST(Sever, CutDuringPropagationRefundsEverything) {
  Simulator sim;
  Network net(sim, 2, slow_net());
  TraceRecorder trace;
  net.set_trace(&trace);
  bool completed = false;
  bool severed = false;
  net.transfer(NodeId(0), NodeId(1), 64 * kMiB, [&] { completed = true; },
               [&] { severed = true; });
  // The cut lands inside the 200us propagation leg, before any byte moved:
  // the stream-start gate aborts the transfer with zero progress.
  sim.schedule(Duration::micros(100),
               [&] { net.reachability().block_outbound(NodeId(0)); });
  sim.run(SimTime::zero() + Duration::seconds(2));
  EXPECT_TRUE(severed);
  EXPECT_FALSE(completed);
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].bytes, 64 * kMiB);
  EXPECT_EQ(static_cast<Bytes>(trace.events()[0].value), 0);
}

TEST(Sever, HealedFabricCarriesNewTransfersWithoutCeremony) {
  Simulator sim;
  Network net(sim, 2, slow_net());
  bool first_severed = false;
  bool second_completed = false;
  net.transfer(NodeId(0), NodeId(1), 100 * kMiB, [] {},
               [&] { first_severed = true; });
  sim.schedule(Duration::millis(200), [&] {
    net.reachability().block_outbound(NodeId(0));
    net.sever_partitioned_transfers();
  });
  sim.schedule(Duration::millis(400), [&] {
    net.reachability().unblock_outbound(NodeId(0));
    net.transfer(NodeId(0), NodeId(1), 100 * kMiB,
                 [&] { second_completed = true; }, [] {});
  });
  sim.run(SimTime::zero() + Duration::seconds(5));
  EXPECT_TRUE(first_severed);
  EXPECT_TRUE(second_completed);
  EXPECT_EQ(net.transfers_severed(), 1u);
}

TEST(Ingress, SharesBlockedAtStreamStartComeBackUnserved) {
  Simulator sim;
  Network net(sim, 3, NetworkProfile{});
  net.reachability().block_outbound(NodeId(2));
  Bytes arrived = -1;
  std::vector<Network::IngressShare> unserved;
  bool done = false;
  net.ingress_transfer(NodeId(0),
                       {{NodeId(1), 64 * kMiB}, {NodeId(2), 64 * kMiB}},
                       [&](Bytes a, std::vector<Network::IngressShare> u) {
                         arrived = a;
                         unserved = std::move(u);
                         done = true;
                       });
  sim.run(SimTime::zero() + Duration::seconds(5));
  ASSERT_TRUE(done);
  EXPECT_EQ(arrived, 64 * kMiB);
  ASSERT_EQ(unserved.size(), 1u);
  EXPECT_EQ(unserved[0].source, NodeId(2));
  EXPECT_EQ(unserved[0].bytes, 64 * kMiB);
}

TEST(Ingress, SeveredStreamConservesEveryByte) {
  Simulator sim;
  Network net(sim, 3, slow_net());
  Bytes arrived = -1;
  std::vector<Network::IngressShare> unserved;
  bool done = false;
  // Two 100 MiB shares into node 0: one 200 MiB receiver-NIC stream, two
  // seconds at 100 MiB/s. Cut sender 2 away at the halfway mark.
  net.ingress_transfer(NodeId(0),
                       {{NodeId(1), 100 * kMiB}, {NodeId(2), 100 * kMiB}},
                       [&](Bytes a, std::vector<Network::IngressShare> u) {
                         arrived = a;
                         unserved = std::move(u);
                         done = true;
                       });
  sim.schedule(Duration::seconds(1), [&] {
    net.reachability().block_outbound(NodeId(2));
    net.sever_partitioned_transfers();
  });
  sim.run(SimTime::zero() + Duration::seconds(5));
  ASSERT_TRUE(done);
  EXPECT_EQ(net.transfers_severed(), 1u);
  Bytes refunded = 0;
  for (const auto& share : unserved) refunded += share.bytes;
  EXPECT_EQ(arrived + refunded, 200 * kMiB) << "conservation across the cut";
  EXPECT_FALSE(unserved.empty());
  EXPECT_GT(arrived, 0);
}

// ---------------------------------------------------------------------------
// Routed control plane through the Testbed fault surface

TestbedConfig routed_config(int nodes, int racks = 1) {
  TestbedConfig config;
  config.mode = RunMode::kIgnem;
  config.cluster.node_count = static_cast<std::size_t>(nodes);
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 16 * kGiB;
  config.rack_count = racks;
  config.seed = 47;
  config.fault_tolerance = true;
  config.check_invariants = true;
  config.routed_control_plane = true;
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

TEST(ControlPlane, ShortCutDropsBeatsButDeclaresNobodyDead) {
  // A cut shorter than the liveness timeout: routed heartbeats are really
  // dropped on the floor (no Testbed suppression fakery), yet the silence
  // window never crosses the threshold, so no false death.
  Testbed testbed(routed_config(/*nodes=*/4));
  testbed.create_file("/input", 640 * kMiB);
  testbed.sim().schedule(Duration::seconds(5), [&] {
    testbed.begin_network_partition(NodeId(2), /*variant=*/0);
  });
  testbed.sim().schedule(Duration::seconds(11), [&] {
    testbed.end_network_partition(NodeId(2), /*variant=*/0);
  });
  testbed.sim().run(SimTime::zero() + Duration::seconds(60));
  EXPECT_EQ(testbed.failure_detector()->false_dead_total(), 0u);
  EXPECT_TRUE(testbed.namenode().is_node_alive(NodeId(2)));
  ASSERT_NE(testbed.rpc_router(), nullptr);
  EXPECT_GT(testbed.rpc_router()->stats().oneways_dropped, 0u)
      << "the beats were genuinely lost to the cut, not suppressed";
}

TEST(ControlPlane, CuttingTheControlRackSilencesTheClusterBrain) {
  // The defining routed-mode scenario: partition the *control node's own*
  // rack. Every node outside it goes silent at the masters simultaneously
  // — the false deaths are control-cut deaths, counted as such — and the
  // heal must reconverge to exact replication with zero leaked bytes.
  Testbed testbed(routed_config(/*nodes=*/6, /*racks=*/2));
  const FileId file = testbed.create_file("/input", 640 * kMiB);
  testbed.sim().schedule(Duration::seconds(5), [&] {
    testbed.begin_rack_partition(NodeId(0));  // rack 0 = nodes 0, 2, 4
  });
  testbed.sim().schedule(Duration::seconds(65),
                         [&] { testbed.end_rack_partition(NodeId(0)); });
  testbed.sim().run(SimTime::zero() + Duration::seconds(200));

  // Nodes 1, 3, 5 were all spuriously declared dead, and every one of those
  // verdicts traces to the severed control link, not a crashed process.
  EXPECT_EQ(testbed.failure_detector()->false_dead_total(), 3u);
  EXPECT_EQ(testbed.failure_detector()->false_dead_control_total(), 3u);
  EXPECT_EQ(count_events(testbed, TraceEventType::kFalseDead, /*detail=*/1),
            3u);
  for (const std::int64_t i : {1, 3, 5}) {
    EXPECT_TRUE(testbed.namenode().is_node_alive(NodeId(i))) << "node " << i;
  }
  for (const BlockId block : testbed.namenode().file(file).blocks) {
    EXPECT_EQ(testbed.namenode().live_locations(block).size(), 3u)
        << "block " << block.value();
  }
  EXPECT_EQ(testbed.network().transfers_severed(),
            count_events(testbed, TraceEventType::kTransferSevered));
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
  EXPECT_EQ(testbed.replica_model_mismatch(), "");
}

TEST(ControlPlane, WorkloadRidesOutAControlRackCut) {
  // Acceptance: the control plane is unreachable for a bounded window in
  // the middle of a live SWIM run. No job may hang forever — work on
  // cached/local data keeps moving, shuffles retry until the heal — and
  // afterwards nothing is leaked or over-replicated.
  TestbedConfig config = routed_config(/*nodes=*/4, /*racks=*/2);
  Testbed testbed(config);
  SwimConfig swim;
  swim.job_count = 12;
  swim.total_input = 3 * kGiB;
  swim.tail_max = 1 * kGiB;
  swim.mean_interarrival = Duration::seconds(2.0);
  swim.seed = 9;
  auto jobs = build_swim_workload(testbed, swim);
  testbed.sim().schedule(Duration::seconds(8), [&] {
    testbed.begin_rack_partition(NodeId(0));  // control rack: nodes 0, 2
  });
  testbed.sim().schedule(Duration::seconds(48),
                         [&] { testbed.end_rack_partition(NodeId(0)); });
  ASSERT_TRUE(testbed.run_workload_limited(std::move(jobs),
                                           Duration::seconds(3600)))
      << "a job hung across the control-plane cut";
  testbed.sim().run(testbed.sim().now() + Duration::seconds(30));

  EXPECT_EQ(testbed.metrics().jobs().size(), 12u);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(testbed.datanode(NodeId(i)).cache().used(), 0) << "node " << i;
  }
  for (const auto& [block, info] : testbed.namenode().all_blocks()) {
    EXPECT_LE(testbed.namenode().live_locations(block).size(), 3u)
        << "block " << block.value() << " over-replicated";
  }
  ASSERT_NE(testbed.rpc_router(), nullptr);
  const RpcStats& rpc = testbed.rpc_router()->stats();
  EXPECT_GT(rpc.oneways_dropped, 0u);
  EXPECT_GT(rpc.delivered, 0u);
  EXPECT_EQ(testbed.network().transfers_severed(),
            count_events(testbed, TraceEventType::kTransferSevered));
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
  EXPECT_EQ(testbed.replica_model_mismatch(), "");
}

TEST(ControlPlane, RackCutSeversAnInFlightTransferThroughTheFaultSurface) {
  // The fault-plane integration: begin_rack_partition itself must abort
  // running flows that now cross the cut, with the refund recorded — on a
  // routed control plane and on a plain testbed alike, since severing does
  // not depend on how the masters talk to their slaves.
  for (const bool routed : {true, false}) {
    SCOPED_TRACE(routed ? "routed" : "unrouted");
    TestbedConfig config = routed_config(/*nodes=*/6, /*racks=*/2);
    config.routed_control_plane = routed;
    Testbed testbed(config);
    bool completed = false;
    bool severed = false;
    testbed.sim().schedule(Duration::seconds(5), [&] {
      testbed.network().transfer(NodeId(1), NodeId(0), 500 * kMiB,
                                 [&] { completed = true; },
                                 [&] { severed = true; });
    });
    testbed.sim().schedule(Duration::seconds(5) + Duration::millis(100),
                           [&] { testbed.begin_rack_partition(NodeId(0)); });
    testbed.sim().schedule(Duration::seconds(8),
                           [&] { testbed.end_rack_partition(NodeId(0)); });
    testbed.sim().run(SimTime::zero() + Duration::seconds(30));
    EXPECT_TRUE(severed);
    EXPECT_FALSE(completed);
    EXPECT_GE(testbed.network().transfers_severed(), 1u);
    EXPECT_EQ(testbed.network().transfers_severed(),
              count_events(testbed, TraceEventType::kTransferSevered));
    EXPECT_TRUE(testbed.invariant_checker()->ok())
        << testbed.invariant_checker()->report();
  }
}

TEST(ControlPlane, OneDatagramPerHeartbeat) {
  // Each node has one heartbeat: the NodeManager beat, which the failure
  // detector hears too. Turning fault tolerance on adds liveness scans but
  // no datagram, so a fault-free routed run sends exactly as many.
  const auto heartbeats_sent = [](bool fault_tolerance) {
    TestbedConfig config = routed_config(/*nodes=*/4, /*racks=*/2);
    config.fault_tolerance = fault_tolerance;
    Testbed testbed(config);
    SwimConfig swim;
    swim.job_count = 6;
    swim.total_input = 2 * kGiB;
    swim.tail_max = 1 * kGiB;
    swim.mean_interarrival = Duration::seconds(2.0);
    swim.seed = 5;
    testbed.run_workload(build_swim_workload(testbed, swim));
    EXPECT_EQ(testbed.rpc_router()->stats().oneways_dropped, 0u);
    return testbed.rpc_router()->stats().oneways;
  };
  const std::uint64_t without = heartbeats_sent(false);
  EXPECT_GT(without, 0u);
  EXPECT_EQ(heartbeats_sent(true), without);
}

}  // namespace
}  // namespace ignem
