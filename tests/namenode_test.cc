#include "dfs/namenode.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/check.h"
#include "sim/simulator.h"

namespace ignem {
namespace {

class NameNodeTest : public ::testing::Test {
 protected:
  void build(std::size_t nodes, int replication, Bytes block_size = 64 * kMiB,
             int racks = 1) {
    namenode_ =
        std::make_unique<NameNode>(Rng(1), replication, block_size, racks);
    for (std::size_t i = 0; i < nodes; ++i) {
      datanodes_.push_back(std::make_unique<DataNode>(
          sim_, NodeId(static_cast<std::int64_t>(i)),
          two_tier_specs(hdd_profile(), 16 * kGiB), Rng(100 + i)));
      namenode_->register_datanode(datanodes_.back().get());
    }
  }

  Simulator sim_;
  std::vector<std::unique_ptr<DataNode>> datanodes_;
  std::unique_ptr<NameNode> namenode_;
};

TEST_F(NameNodeTest, FileSplitsIntoBlocks) {
  build(4, 3);
  const FileId id = namenode_->create_file("/a", 200 * kMiB);
  const FileInfo& info = namenode_->file(id);
  ASSERT_EQ(info.blocks.size(), 4u);  // 64+64+64+8
  EXPECT_EQ(namenode_->block(info.blocks[0]).size, 64 * kMiB);
  EXPECT_EQ(namenode_->block(info.blocks[3]).size, 8 * kMiB);
  Bytes total = 0;
  for (const BlockId b : info.blocks) total += namenode_->block(b).size;
  EXPECT_EQ(total, 200 * kMiB);
}

TEST_F(NameNodeTest, SmallFileIsOneBlock) {
  build(4, 3);
  const FileId id = namenode_->create_file("/small", 1 * kMiB);
  EXPECT_EQ(namenode_->file(id).blocks.size(), 1u);
}

TEST_F(NameNodeTest, ReplicasAreDistinctNodes) {
  build(8, 3);
  const FileId id = namenode_->create_file("/a", 640 * kMiB);
  for (const BlockId b : namenode_->file(id).blocks) {
    const auto& replicas = namenode_->block(b).replicas;
    EXPECT_EQ(replicas.size(), 3u);
    const std::set<NodeId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), replicas.size());
  }
}

TEST_F(NameNodeTest, ReplicationCappedByClusterSize) {
  build(2, 3);
  const FileId id = namenode_->create_file("/a", 64 * kMiB);
  EXPECT_EQ(namenode_->block(namenode_->file(id).blocks[0]).replicas.size(),
            2u);
}

TEST_F(NameNodeTest, BlocksRegisteredOnDataNodes) {
  build(4, 2);
  const FileId id = namenode_->create_file("/a", 64 * kMiB);
  const BlockId block = namenode_->file(id).blocks[0];
  for (const NodeId node : namenode_->block(block).replicas) {
    EXPECT_TRUE(namenode_->datanode(node)->has_block(block));
    EXPECT_EQ(namenode_->datanode(node)->block_size(block), 64 * kMiB);
  }
}

TEST_F(NameNodeTest, LookupByPath) {
  build(2, 1);
  const FileId id = namenode_->create_file("/x/y", 1 * kMiB);
  EXPECT_EQ(namenode_->lookup("/x/y"), id);
  EXPECT_FALSE(namenode_->lookup("/nope").valid());
}

TEST_F(NameNodeTest, DuplicatePathRejected) {
  build(2, 1);
  namenode_->create_file("/a", 1 * kMiB);
  EXPECT_THROW(namenode_->create_file("/a", 1 * kMiB), CheckFailure);
}

TEST_F(NameNodeTest, DeadNodeLeavesLocations) {
  build(4, 3);
  const FileId id = namenode_->create_file("/a", 64 * kMiB);
  const BlockId block = namenode_->file(id).blocks[0];
  const NodeId victim = namenode_->block(block).replicas[0];
  namenode_->set_node_alive(victim, false);
  const auto live = namenode_->live_locations(block);
  EXPECT_EQ(live.size(), 2u);
  for (const NodeId node : live) EXPECT_NE(node, victim);
  // Recovery restores it.
  namenode_->set_node_alive(victim, true);
  EXPECT_EQ(namenode_->live_locations(block).size(), 3u);
}

TEST_F(NameNodeTest, PlacementSkipsDeadNodes) {
  build(4, 3);
  namenode_->set_node_alive(NodeId(0), false);
  const FileId id = namenode_->create_file("/a", 640 * kMiB);
  for (const BlockId b : namenode_->file(id).blocks) {
    for (const NodeId node : namenode_->block(b).replicas) {
      EXPECT_NE(node, NodeId(0));
    }
  }
}

TEST_F(NameNodeTest, PlacementSpreadsLoad) {
  build(8, 1);
  const FileId id = namenode_->create_file("/big", 64 * 64 * kMiB);
  std::set<NodeId> used;
  for (const BlockId b : namenode_->file(id).blocks) {
    used.insert(namenode_->block(b).replicas[0]);
  }
  // 64 single-replica blocks over 8 nodes should touch most nodes.
  EXPECT_GE(used.size(), 6u);
}

TEST_F(NameNodeTest, TotalBytes) {
  build(2, 1);
  const FileId a = namenode_->create_file("/a", 10 * kMiB);
  const FileId b = namenode_->create_file("/b", 30 * kMiB);
  EXPECT_EQ(namenode_->total_bytes({a, b}), 40 * kMiB);
}

TEST_F(NameNodeTest, Counts) {
  build(3, 2);
  namenode_->create_file("/a", 130 * kMiB);
  EXPECT_EQ(namenode_->file_count(), 1u);
  EXPECT_EQ(namenode_->block_count(), 3u);
  EXPECT_EQ(namenode_->node_count(), 3u);
}

TEST_F(NameNodeTest, RackAwarePlacementSpansTwoRacks) {
  build(8, 3, 64 * kMiB, /*racks=*/2);
  const FileId id = namenode_->create_file("/a", 64 * 20 * kMiB);
  for (const BlockId b : namenode_->file(id).blocks) {
    const auto& replicas = namenode_->block(b).replicas;
    ASSERT_EQ(replicas.size(), 3u);
    std::set<int> racks;
    for (const NodeId node : replicas) racks.insert(namenode_->rack_of(node));
    // HDFS default: exactly two racks per 3-replicated block.
    EXPECT_EQ(racks.size(), 2u);
    // Second and third replicas share a rack.
    EXPECT_EQ(namenode_->rack_of(replicas[1]), namenode_->rack_of(replicas[2]));
    EXPECT_NE(namenode_->rack_of(replicas[0]), namenode_->rack_of(replicas[1]));
  }
}

TEST_F(NameNodeTest, WholeRackFailureLosesNoBlocks) {
  build(8, 3, 64 * kMiB, /*racks=*/2);
  const FileId id = namenode_->create_file("/a", 64 * 30 * kMiB);
  // Kill every node in rack 0.
  for (const NodeId node : namenode_->live_nodes()) {
    if (namenode_->rack_of(node) == 0) namenode_->set_node_alive(node, false);
  }
  for (const BlockId b : namenode_->file(id).blocks) {
    EXPECT_GE(namenode_->live_locations(b).size(), 1u)
        << "block " << b.value() << " lost to a single-rack failure";
  }
}

TEST_F(NameNodeTest, SingleRackDegradesToUniform) {
  build(4, 3, 64 * kMiB, /*racks=*/1);
  const FileId id = namenode_->create_file("/a", 640 * kMiB);
  for (const BlockId b : namenode_->file(id).blocks) {
    EXPECT_EQ(namenode_->block(b).replicas.size(), 3u);
  }
  EXPECT_EQ(namenode_->rack_count(), 1);
  EXPECT_EQ(namenode_->rack_of(NodeId(3)), 0);
}

TEST_F(NameNodeTest, RejectsUnknownIds) {
  build(2, 1);
  EXPECT_THROW(namenode_->file(FileId(99)), CheckFailure);
  EXPECT_THROW(namenode_->block(BlockId(99)), CheckFailure);
  EXPECT_THROW(namenode_->create_file("/zero", 0), CheckFailure);
}

}  // namespace
}  // namespace ignem
