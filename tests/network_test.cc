#include "net/network.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "sim/simulator.h"

namespace ignem {
namespace {

NetworkProfile test_profile() {
  NetworkProfile p;
  p.nic_bw = mib_per_sec(100);
  p.rtt = Duration::millis(1);
  return p;
}

TEST(Network, RemoteTransferPaysRttPlusBandwidth) {
  Simulator sim;
  Network net(sim, 4, test_profile());
  double t = -1;
  net.transfer(NodeId(0), NodeId(1), 100 * kMiB,
               [&] { t = sim.now().to_seconds(); });
  sim.run();
  EXPECT_NEAR(t, 1.001, 1e-3);
}

TEST(Network, LocalTransferBypassesNic) {
  Simulator sim;
  Network net(sim, 4, test_profile());
  double t = -1;
  net.transfer(NodeId(2), NodeId(2), 1000 * kMiB,
               [&] { t = sim.now().to_seconds(); });
  sim.run();
  EXPECT_LT(t, 0.001);
  EXPECT_EQ(net.total_bytes_sent(NodeId(2)), 0);
}

TEST(Network, EgressSharedPerSourceNode) {
  Simulator sim;
  Network net(sim, 4, test_profile());
  double t1 = -1, t2 = -1;
  net.transfer(NodeId(0), NodeId(1), 50 * kMiB,
               [&] { t1 = sim.now().to_seconds(); });
  net.transfer(NodeId(0), NodeId(2), 50 * kMiB,
               [&] { t2 = sim.now().to_seconds(); });
  sim.run();
  // Both share node 0's egress: 100 MiB total at 100 MiB/s.
  EXPECT_NEAR(t1, 1.001, 1e-2);
  EXPECT_NEAR(t2, 1.001, 1e-2);
}

TEST(Network, DistinctSourcesDoNotContend) {
  Simulator sim;
  Network net(sim, 4, test_profile());
  double t1 = -1, t2 = -1;
  net.transfer(NodeId(0), NodeId(2), 100 * kMiB,
               [&] { t1 = sim.now().to_seconds(); });
  net.transfer(NodeId(1), NodeId(2), 100 * kMiB,
               [&] { t2 = sim.now().to_seconds(); });
  sim.run();
  EXPECT_NEAR(t1, 1.001, 1e-2);
  EXPECT_NEAR(t2, 1.001, 1e-2);
}

TEST(Network, IngressTransferChargesDestination) {
  Simulator sim;
  Network net(sim, 4, test_profile());
  double t = -1;
  net.ingress_transfer(NodeId(3), {{NodeId(0), 200 * kMiB}},
                       [&](Bytes, std::vector<Network::IngressShare>) {
                         t = sim.now().to_seconds();
                       });
  sim.run();
  EXPECT_NEAR(t, 2.001, 1e-2);
  EXPECT_EQ(net.total_bytes_sent(NodeId(3)), 200 * kMiB);
}

TEST(Network, BytesAccounting) {
  Simulator sim;
  Network net(sim, 2, test_profile());
  net.transfer(NodeId(0), NodeId(1), 10 * kMiB, [] {});
  net.transfer(NodeId(0), NodeId(1), 15 * kMiB, [] {});
  sim.run();
  EXPECT_EQ(net.total_bytes_sent(NodeId(0)), 25 * kMiB);
  EXPECT_EQ(net.total_bytes_sent(NodeId(1)), 0);
}

TEST(Network, InvalidNodeRejected) {
  Simulator sim;
  Network net(sim, 2, test_profile());
  net.transfer(NodeId(5), NodeId(0), 1, [] {});
  EXPECT_THROW(sim.run(), CheckFailure);  // bad src caught at NIC lookup
}

TEST(Network, NodeCount) {
  Simulator sim;
  Network net(sim, 8, test_profile());
  EXPECT_EQ(net.node_count(), 8u);
}

}  // namespace
}  // namespace ignem
