#include "dfs/namenode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
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
          hdd_profile(), 16 * kGiB, Rng(100 + i)));
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
  EXPECT_THROW(namenode_->is_node_alive(NodeId(2)), CheckFailure);
  EXPECT_THROW(namenode_->is_node_alive(NodeId::invalid()), CheckFailure);
  EXPECT_THROW(namenode_->set_node_alive(NodeId(2), false), CheckFailure);
  EXPECT_THROW(namenode_->datanode(NodeId(2)), CheckFailure);
}

// The linear-scan placement the live-node index replaced: every pick
// filters the pool of live, not yet chosen nodes in id order and draws one
// index among the eligible ones. Kept here as the model the index must
// match decision for decision and draw for draw.
struct ScanPlacementModel {
  // How often each branch of the policy ran, so the test can show that
  // every fallback was exercised.
  struct Coverage {
    int capped = 0;            // fewer live nodes than the replication
    int second_off_rack = 0;
    int second_fallback = 0;   // every live node on the first's rack
    int third_on_rack = 0;
    int third_fallback = 0;    // no other live node on the second's rack
    int extra = 0;             // replicas beyond the third
  };

  std::vector<NodeId> place(const std::vector<bool>& alive, int racks,
                            std::size_t count) {
    std::vector<NodeId> live;
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (alive[i]) live.push_back(NodeId(static_cast<std::int64_t>(i)));
    }
    if (live.size() < count) ++coverage.capped;
    count = std::min(count, live.size());
    const auto rack_of = [&](NodeId n) {
      return static_cast<int>(n.value() % racks);
    };
    auto pick_where = [&](std::vector<NodeId>& pool, auto&& pred) -> NodeId {
      std::vector<std::size_t> eligible;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pred(pool[i])) eligible.push_back(i);
      }
      if (eligible.empty()) return NodeId::invalid();
      const std::size_t idx = eligible[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(eligible.size()) - 1))];
      const NodeId node = pool[idx];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
      return node;
    };
    const auto any = [](NodeId) { return true; };

    std::vector<NodeId> chosen;
    chosen.push_back(pick_where(live, any));
    if (chosen.size() < count) {
      const int first_rack = rack_of(chosen[0]);
      NodeId second = pick_where(
          live, [&](NodeId n) { return rack_of(n) != first_rack; });
      ++(second.valid() ? coverage.second_off_rack : coverage.second_fallback);
      if (!second.valid()) second = pick_where(live, any);
      chosen.push_back(second);
    }
    if (chosen.size() < count) {
      const int second_rack = rack_of(chosen[1]);
      NodeId third = pick_where(
          live, [&](NodeId n) { return rack_of(n) == second_rack; });
      ++(third.valid() ? coverage.third_on_rack : coverage.third_fallback);
      if (!third.valid()) third = pick_where(live, any);
      chosen.push_back(third);
    }
    while (chosen.size() < count) {
      chosen.push_back(pick_where(live, any));
      ++coverage.extra;
    }
    return chosen;
  }

  Rng rng;
  Coverage coverage;
};

// Drives the indexed NameNode and the scan model through seeded streams of
// placements between random kills and revivals — single nodes, whole
// racks, all racks but one, all but a single node — and compares the
// chosen replicas and the next draw of both generators after every
// placement.
TEST(NameNodePlacement, MatchesLinearScanModel) {
  struct Shape {
    std::size_t nodes;
    int racks;
    int replication;
  };
  // 1-600 nodes, 1-16 racks (more racks than nodes in the small ones),
  // replication 1-5.
  const std::vector<Shape> shapes = {
      {1, 1, 3},    {1, 4, 1},    {2, 16, 3},   {3, 5, 5},   {4, 2, 3},
      {5, 1, 2},    {7, 3, 4},    {8, 2, 3},    {12, 16, 3}, {16, 4, 5},
      {20, 6, 3},   {31, 7, 2},   {48, 8, 3},   {64, 16, 4}, {100, 3, 3},
      {128, 4, 3},  {200, 9, 1},  {257, 11, 5}, {333, 13, 3}, {400, 16, 3},
      {480, 15, 2}, {512, 16, 3}, {550, 5, 4},  {600, 12, 3}};
  constexpr int kPlacements = 250;
  constexpr Bytes kBlock = 1 * kMiB;

  ScanPlacementModel::Coverage total;
  for (std::size_t stream = 0; stream < shapes.size(); ++stream) {
    const Shape& shape = shapes[stream];
    SCOPED_TRACE(::testing::Message()
                 << "stream " << stream << ": " << shape.nodes << " nodes, "
                 << shape.racks << " racks, replication "
                 << shape.replication);
    const std::uint64_t seed = 7000 + stream;
    Simulator sim;
    std::vector<std::unique_ptr<DataNode>> datanodes;
    NameNode namenode(Rng(seed), shape.replication, kBlock, shape.racks);
    for (std::size_t i = 0; i < shape.nodes; ++i) {
      datanodes.push_back(std::make_unique<DataNode>(
          sim, NodeId(static_cast<std::int64_t>(i)),
          hdd_profile(), 1 * kGiB, Rng(i)));
      namenode.register_datanode(datanodes.back().get());
    }
    ScanPlacementModel model{Rng(seed), {}};
    std::vector<bool> alive(shape.nodes, true);
    Rng events(seed ^ 0x5eed);

    const auto set_alive = [&](std::size_t node, bool up) {
      alive[node] = up;
      namenode.set_node_alive(NodeId(static_cast<std::int64_t>(node)), up);
    };
    const auto live_count = [&] {
      return static_cast<std::size_t>(
          std::count(alive.begin(), alive.end(), true));
    };
    const auto random_node = [&] {
      return static_cast<std::size_t>(
          events.uniform_int(0, static_cast<std::int64_t>(shape.nodes) - 1));
    };
    const auto rack_of = [&](std::size_t node) {
      return static_cast<int>(node % static_cast<std::size_t>(shape.racks));
    };
    // Kills every live node for which `doomed` holds, unless that would
    // leave the cluster without a live node.
    const auto kill_where = [&](auto&& doomed) {
      std::size_t survivors = 0;
      for (std::size_t n = 0; n < shape.nodes; ++n) {
        if (alive[n] && !doomed(n)) ++survivors;
      }
      if (survivors == 0) return;
      for (std::size_t n = 0; n < shape.nodes; ++n) {
        if (alive[n] && doomed(n)) set_alive(n, false);
      }
    };

    for (int p = 0; p < kPlacements; ++p) {
      if (events.bernoulli(0.3)) {
        const double kind = events.next_double();
        if (kind < 0.35) {
          const std::size_t victim = random_node();
          kill_where([&](std::size_t n) { return n == victim; });
        } else if (kind < 0.6) {
          const std::size_t node = random_node();
          if (!alive[node]) set_alive(node, true);
        } else if (kind < 0.7) {
          const int rack = rack_of(random_node());
          kill_where([&](std::size_t n) { return rack_of(n) == rack; });
        } else if (kind < 0.8) {
          const int keep = rack_of(random_node());
          kill_where([&](std::size_t n) { return rack_of(n) != keep; });
        } else if (kind < 0.9) {
          const std::size_t keep = random_node();
          kill_where([&](std::size_t n) { return n != keep; });
        } else {
          for (std::size_t n = 0; n < shape.nodes; ++n) {
            if (!alive[n]) set_alive(n, true);
          }
        }
      }
      ASSERT_GE(live_count(), 1u);

      const FileId file =
          namenode.create_file("/f" + std::to_string(p), kBlock);
      const BlockId block = namenode.file(file).blocks.at(0);
      const std::vector<NodeId> expected = model.place(
          alive, shape.racks, static_cast<std::size_t>(shape.replication));
      ASSERT_EQ(namenode.block(block).replicas, expected)
          << "placement " << p;
      Rng indexed = namenode.placement_rng();
      Rng scanned = model.rng;
      ASSERT_EQ(indexed.next_u64(), scanned.next_u64()) << "placement " << p;

      std::vector<NodeId> live;
      for (std::size_t n = 0; n < shape.nodes; ++n) {
        const NodeId id(static_cast<std::int64_t>(n));
        ASSERT_EQ(namenode.is_node_alive(id), alive[n]) << "node " << n;
        if (alive[n]) live.push_back(id);
      }
      ASSERT_EQ(namenode.live_nodes(), live) << "placement " << p;
    }
    total.capped += model.coverage.capped;
    total.second_off_rack += model.coverage.second_off_rack;
    total.second_fallback += model.coverage.second_fallback;
    total.third_on_rack += model.coverage.third_on_rack;
    total.third_fallback += model.coverage.third_fallback;
    total.extra += model.coverage.extra;
  }
  // Every branch of the policy, fallbacks included, ran many times.
  EXPECT_GT(total.capped, 100);
  EXPECT_GT(total.second_off_rack, 100);
  EXPECT_GT(total.second_fallback, 100);
  EXPECT_GT(total.third_on_rack, 100);
  EXPECT_GT(total.third_fallback, 100);
  EXPECT_GT(total.extra, 100);
}

}  // namespace
}  // namespace ignem
