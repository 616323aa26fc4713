#include "dfs/replication_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace ignem {
namespace {

class ReplicationManagerTest : public ::testing::Test {
 protected:
  void build(std::size_t nodes, int replication) {
    replication_ = replication;
    namenode_ = std::make_unique<NameNode>(Rng(1), replication);
    DeviceProfile profile = hdd_profile();
    profile.access_jitter = 0.0;
    for (std::size_t i = 0; i < nodes; ++i) {
      datanodes_.push_back(std::make_unique<DataNode>(
          sim_, NodeId(static_cast<std::int64_t>(i)),
          two_tier_specs(profile, 16 * kGiB), Rng(50 + i)));
      namenode_->register_datanode(datanodes_.back().get());
    }
    network_ = std::make_unique<Network>(sim_, nodes, NetworkProfile{});
    manager_ = std::make_unique<ReplicationManager>(sim_, *namenode_,
                                                    *network_, Rng(2));
  }

  std::size_t live_replicas(BlockId block) {
    return namenode_->live_locations(block).size();
  }

  int replication_ = 3;
  Simulator sim_;
  std::vector<std::unique_ptr<DataNode>> datanodes_;
  std::unique_ptr<NameNode> namenode_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<ReplicationManager> manager_;
};

TEST_F(ReplicationManagerTest, RestoresReplicationAfterNodeLoss) {
  build(6, 3);
  const FileId file = namenode_->create_file("/a", 640 * kMiB);  // 10 blocks
  manager_->handle_node_failure(NodeId(0), replication_);
  sim_.run();
  EXPECT_GT(manager_->stats().blocks_scheduled, 0u);
  EXPECT_EQ(manager_->stats().blocks_repaired,
            manager_->stats().blocks_scheduled);
  for (const BlockId block : namenode_->file(file).blocks) {
    EXPECT_EQ(live_replicas(block), 3u) << "block " << block.value();
  }
}

TEST_F(ReplicationManagerTest, UntouchedBlocksNotScheduled) {
  build(6, 3);
  namenode_->create_file("/a", 64 * kMiB);
  // Fail a node that may or may not hold the block; only affected blocks
  // queue. Fail a node holding nothing by construction: create the file
  // first, then find a node without the block.
  const BlockId block = namenode_->file(namenode_->lookup("/a")).blocks[0];
  NodeId spare = NodeId::invalid();
  for (const NodeId node : namenode_->live_nodes()) {
    const auto& replicas = namenode_->block(block).replicas;
    if (std::find(replicas.begin(), replicas.end(), node) == replicas.end()) {
      spare = node;
      break;
    }
  }
  ASSERT_TRUE(spare.valid());
  manager_->handle_node_failure(spare, replication_);
  sim_.run();
  EXPECT_EQ(manager_->stats().blocks_scheduled, 0u);
}

TEST_F(ReplicationManagerTest, ThrottlesConcurrentRepairs) {
  build(6, 3);
  namenode_->create_file("/a", 64 * 20 * kMiB);  // 20 blocks
  manager_->handle_node_failure(NodeId(0), replication_);
  EXPECT_LE(manager_->in_flight(), 2);
  sim_.run();
  EXPECT_EQ(manager_->in_flight(), 0);
  EXPECT_EQ(manager_->pending(), 0u);
}

TEST_F(ReplicationManagerTest, TotalDataLossIsReported) {
  build(3, 1);  // single replica: losing its node loses the block
  const FileId file = namenode_->create_file("/a", 64 * kMiB);
  const NodeId holder = namenode_->block(namenode_->file(file).blocks[0])
                            .replicas[0];
  manager_->handle_node_failure(holder, 1);
  sim_.run();
  EXPECT_EQ(manager_->stats().blocks_unrepairable, 1u);
  EXPECT_EQ(manager_->stats().blocks_repaired, 0u);
}

TEST_F(ReplicationManagerTest, FullClusterReplicationUnrepairable) {
  build(3, 3);  // replicas everywhere: no spare target after a failure
  namenode_->create_file("/a", 64 * kMiB);
  manager_->handle_node_failure(NodeId(1), 3);
  sim_.run();
  EXPECT_EQ(manager_->stats().blocks_unrepairable, 1u);
}

TEST_F(ReplicationManagerTest, CascadingFailuresStillConverge) {
  build(8, 3);
  const FileId file = namenode_->create_file("/a", 640 * kMiB);
  manager_->handle_node_failure(NodeId(0), replication_);
  sim_.schedule(Duration::seconds(2), [&] {
    manager_->handle_node_failure(NodeId(1), replication_);
  });
  sim_.run();
  for (const BlockId block : namenode_->file(file).blocks) {
    EXPECT_EQ(live_replicas(block), 3u);
  }
}

TEST_F(ReplicationManagerTest, UnrepairableBlocksDoNotStallOtherRepairs) {
  build(5, 2);
  // /a has a single block; killing both of its holders makes it permanently
  // unrepairable (no live source). /b's blocks must still converge.
  const FileId a = namenode_->create_file("/a", 64 * kMiB);
  const BlockId lost = namenode_->file(a).blocks[0];
  const std::vector<NodeId> holders = namenode_->block(lost).replicas;
  ASSERT_EQ(holders.size(), 2u);
  const FileId b = namenode_->create_file("/b", 640 * kMiB);  // 10 blocks
  manager_->handle_node_failure(holders[0], replication_);
  manager_->handle_node_failure(holders[1], replication_);
  sim_.run();
  EXPECT_GE(manager_->stats().blocks_unrepairable, 1u);
  EXPECT_EQ(manager_->in_flight(), 0);
  EXPECT_EQ(manager_->pending(), 0u);
  EXPECT_EQ(live_replicas(lost), 0u);
  // Every /b block with a surviving source is back at full replication;
  // blocks that also lost both replicas are counted, not retried forever.
  for (const BlockId block : namenode_->file(b).blocks) {
    const std::size_t live = live_replicas(block);
    EXPECT_TRUE(live == 2u || live == 0u) << "block " << block.value()
                                          << " stuck at " << live;
  }
  EXPECT_EQ(manager_->stats().blocks_repaired +
                manager_->stats().blocks_unrepairable,
            manager_->stats().blocks_scheduled);
}

TEST_F(ReplicationManagerTest, AddReplicaValidations) {
  build(4, 2);
  const FileId file = namenode_->create_file("/a", 64 * kMiB);
  const BlockId block = namenode_->file(file).blocks[0];
  const NodeId holder = namenode_->block(block).replicas[0];
  EXPECT_THROW(namenode_->add_replica(block, holder), CheckFailure);
  namenode_->set_node_alive(NodeId(3), false);
  const auto& replicas = namenode_->block(block).replicas;
  if (std::find(replicas.begin(), replicas.end(), NodeId(3)) ==
      replicas.end()) {
    EXPECT_THROW(namenode_->add_replica(block, NodeId(3)), CheckFailure);
  }
}

}  // namespace
}  // namespace ignem
