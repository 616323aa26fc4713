#include "dfs/replication_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_recorder.h"
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
          profile, 16 * kGiB, Rng(50 + i)));
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
  // Both processes crash before either is declared dead, so neither can
  // serve as the other's repair source.
  for (const NodeId holder : holders) namenode_->datanode(holder)->fail();
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

// ---------------------------------------------------------------------------
// Node-local walks against the namespace scans they replaced.
//
// The model keeps the earlier implementation: on a failure, every block in
// the namespace map whose replica list names the node, is not yet queued
// and has fewer live replicas than the target; on a rejoin, the same blocks
// collected and sorted, then the excess copies dropped one by one. The
// ReplicationManager walks the node's own replica table instead.

struct WalkCoverage {
  int held_already_queued = 0;  // skipped: queued by an earlier event
  int held_healthy = 0;         // skipped: enough live replicas
  int queued = 0;
  int queued_corrupt_here = 0;  // the node's own replica is corrupt-marked
  int queued_after_queued = 0;  // a lower id on the node was already queued
  int refailures = 0;           // a failure of an already-dead node
  int held_without_excess = 0;  // rejoin: nothing to drop
  int victims = 0;
  int victim_spares_promoted = 0;  // an unpromoted copy dropped, a promoted
                                   // one kept
  int victim_promoted = 0;         // every candidate promoted
  int victim_by_id = 0;            // a promotion tie broken by node id
  int repeated_drops = 0;          // a block losing a second excess copy
};

bool lists(const BlockInfo& info, NodeId node) {
  return std::find(info.replicas.begin(), info.replicas.end(), node) !=
         info.replicas.end();
}

// The failure scan, in namespace-map order; the node is already dead.
std::set<BlockId> scan_failure(const NameNode& namenode, NodeId node,
                               int target, const std::set<BlockId>& queued,
                               WalkCoverage& coverage) {
  std::set<BlockId> out;
  for (const auto& [block_id, info] : namenode.all_blocks()) {
    if (!lists(info, node)) continue;
    if (queued.contains(block_id)) {
      ++coverage.held_already_queued;
      continue;
    }
    const auto live = namenode.live_locations(block_id);
    if (live.size() >= static_cast<std::size_t>(target)) {
      ++coverage.held_healthy;
      continue;
    }
    out.insert(block_id);
    ++coverage.queued;
    if (namenode.is_replica_corrupt(block_id, node)) {
      ++coverage.queued_corrupt_here;
    }
  }
  for (const BlockId block : queued) {
    if (lists(namenode.block(block), node)) {
      coverage.queued_after_queued += static_cast<int>(
          std::distance(out.upper_bound(block), out.end()));
      break;
    }
  }
  return out;
}

// The rejoin scan: (block, victim) in deletion order. Works on copies of
// the replica lists, since the real walk has not run yet.
std::vector<std::pair<BlockId, NodeId>> scan_rejoin(const NameNode& namenode,
                                                    NodeId node, int target,
                                                    WalkCoverage& coverage) {
  std::vector<BlockId> held;
  for (const auto& [block_id, info] : namenode.all_blocks()) {
    if (lists(info, node)) held.push_back(block_id);
  }
  std::sort(held.begin(), held.end());
  std::vector<std::pair<BlockId, NodeId>> out;
  for (const BlockId block : held) {
    std::vector<NodeId> replicas = namenode.block(block).replicas;
    int drops = 0;
    while (true) {
      std::vector<NodeId> live;
      for (const NodeId n : replicas) {
        if (namenode.is_node_alive(n) &&
            !namenode.is_replica_corrupt(block, n)) {
          live.push_back(n);
        }
      }
      if (live.size() <= static_cast<std::size_t>(target)) break;
      NodeId victim = NodeId::invalid();
      bool victim_promoted = false;
      int promoted_candidates = 0;
      int candidates = 0;
      for (const NodeId cand : live) {
        if (cand == node) continue;
        const bool promoted = namenode.datanode(cand)->has_promoted_copy(block);
        ++candidates;
        promoted_candidates += promoted ? 1 : 0;
        if (!victim.valid() || (victim_promoted && !promoted) ||
            (victim_promoted == promoted && cand.value() > victim.value())) {
          victim = cand;
          victim_promoted = promoted;
        }
      }
      if (!victim.valid()) break;
      ++coverage.victims;
      if (victim_promoted) ++coverage.victim_promoted;
      if (!victim_promoted && promoted_candidates > 0) {
        ++coverage.victim_spares_promoted;
      }
      const int tied = victim_promoted ? promoted_candidates
                                       : candidates - promoted_candidates;
      if (tied > 1) ++coverage.victim_by_id;
      if (++drops > 1) ++coverage.repeated_drops;
      out.emplace_back(block, victim);
      replicas.erase(std::find(replicas.begin(), replicas.end(), victim));
    }
    if (drops == 0) ++coverage.held_without_excess;
  }
  return out;
}

// Seeded streams over random namespaces: files created, replicas added
// (racing repairs) and invalidated, corrupt marks, promoted copies, node
// deaths, repeated deaths and rejoins. One repair is parked in flight and
// the simulator never runs, so every block a failure queues stays in the
// queue where the test can read it.
TEST(ReplicationManager, NodeWalkMatchesNamespaceScanModel) {
  struct Shape {
    std::size_t nodes;
    int racks;
    int replication;
  };
  const std::vector<Shape> shapes = {
      {4, 1, 2},  {4, 2, 3},  {5, 1, 3},  {5, 4, 2},  {6, 2, 2},
      {6, 3, 3},  {7, 1, 2},  {8, 4, 3},  {9, 3, 2},  {10, 2, 3},
      {12, 4, 3}, {16, 4, 2}, {16, 1, 3}, {20, 3, 3}, {24, 4, 2}};
  constexpr int kSteps = 240;
  constexpr Bytes kBlock = 64 * kMiB;

  WalkCoverage coverage;
  for (std::size_t stream = 0; stream < shapes.size(); ++stream) {
    const Shape& shape = shapes[stream];
    SCOPED_TRACE(::testing::Message()
                 << "stream " << stream << ": " << shape.nodes << " nodes, "
                 << shape.racks << " racks, replication "
                 << shape.replication);
    const std::uint64_t seed = 9100 + stream;
    const int target = shape.replication;
    Simulator sim;
    std::vector<std::unique_ptr<DataNode>> datanodes;
    NameNode namenode(Rng(seed), shape.replication, kBlock, shape.racks);
    for (std::size_t i = 0; i < shape.nodes; ++i) {
      datanodes.push_back(std::make_unique<DataNode>(
          sim, NodeId(static_cast<std::int64_t>(i)),
          hdd_profile(), 16 * kGiB, Rng(seed + i)));
      namenode.register_datanode(datanodes.back().get());
    }
    Network network(sim, shape.nodes, NetworkProfile{}, shape.racks);
    ReplicationManager manager(sim, namenode, network, Rng(seed + 1),
                               /*max_concurrent=*/1);
    TraceRecorder trace;
    manager.set_trace(&trace);
    Rng events(seed ^ 0x5eed);

    // Park one repair in flight: a corrupt-marked copy with healthy peers
    // and a spare target starts a copy that never completes.
    const BlockId plug =
        namenode.file(namenode.create_file("/plug", kBlock)).blocks.at(0);
    namenode.mark_replica_corrupt(plug, namenode.block(plug).replicas.at(0));
    manager.handle_corrupt_replica(plug, target);
    ASSERT_EQ(manager.in_flight(), 1);
    ASSERT_TRUE(manager.queue().empty());
    std::set<BlockId> queued = {plug};

    const auto random_of = [&](const auto& items) {
      return items[static_cast<std::size_t>(events.uniform_int(
          0, static_cast<std::int64_t>(items.size()) - 1))];
    };
    const auto random_block = [&] {
      return BlockId(events.uniform_int(
          0, static_cast<std::int64_t>(namenode.block_count()) - 1));
    };
    const auto dead_nodes = [&] {
      std::vector<NodeId> dead;
      for (std::size_t n = 0; n < shape.nodes; ++n) {
        const NodeId id(static_cast<std::int64_t>(n));
        if (!namenode.is_node_alive(id)) dead.push_back(id);
      }
      return dead;
    };
    // Each DataNode's table holds exactly the blocks the namespace lists
    // on it: the premise of the node-local walk.
    const auto tables_match = [&] {
      std::vector<std::vector<BlockId>> listed(shape.nodes);
      for (const auto& [block_id, info] : namenode.all_blocks()) {
        for (const NodeId n : info.replicas) {
          listed[static_cast<std::size_t>(n.value())].push_back(block_id);
        }
      }
      for (std::size_t n = 0; n < shape.nodes; ++n) {
        std::sort(listed[n].begin(), listed[n].end());
        if (datanodes[n]->blocks_sorted() != listed[n]) return false;
      }
      return true;
    };
    const auto fail = [&](NodeId node) {
      ASSERT_TRUE(tables_match());
      namenode.set_node_alive(node, false);
      const std::set<BlockId> expected =
          scan_failure(namenode, node, target, queued, coverage);
      const std::size_t before = manager.queue().size();
      manager.handle_node_failure(node, target);
      const std::vector<BlockId> walked(
          manager.queue().begin() + static_cast<std::ptrdiff_t>(before),
          manager.queue().end());
      ASSERT_EQ(walked, std::vector<BlockId>(expected.begin(), expected.end()))
          << "failure of node " << node.value();
      ASSERT_EQ(manager.in_flight(), 1);
      queued.insert(expected.begin(), expected.end());
    };

    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      const double kind = events.next_double();
      const std::vector<NodeId> live = namenode.live_nodes();
      const std::vector<NodeId> dead = dead_nodes();
      if (kind < 0.15) {
        const auto blocks = events.uniform_int(1, 4);
        namenode.create_file("/f" + std::to_string(step),
                             blocks * kBlock - events.uniform_int(0, 1) * kMiB);
      } else if (kind < 0.42) {
        // Repair copies landing: possibly over-replicating the block.
        const BlockId block = random_block();
        for (auto copies = events.uniform_int(1, 3); copies > 0; --copies) {
          const NodeId node = random_of(live);
          if (!lists(namenode.block(block), node)) {
            namenode.add_replica(block, node);
          }
        }
      } else if (kind < 0.47) {
        const BlockId block = random_block();
        const auto& replicas = namenode.block(block).replicas;
        if (!replicas.empty()) {
          namenode.invalidate_replica(block, random_of(replicas));
        }
      } else if (kind < 0.54) {
        const BlockId block = random_block();
        const auto& replicas = namenode.block(block).replicas;
        if (!replicas.empty()) {
          namenode.mark_replica_corrupt(block, random_of(replicas));
        }
      } else if (kind < 0.66) {
        // Promoted copies on most of one block's holders.
        const BlockId block = random_block();
        for (const NodeId holder : namenode.block(block).replicas) {
          if (events.bernoulli(0.7)) {
            datanodes[static_cast<std::size_t>(holder.value())]->cache().lock(
                block, namenode.block(block).size);
          }
        }
      } else if (kind < 0.78) {
        if (live.size() > 1) fail(random_of(live));
      } else if (kind < 0.82) {
        if (!dead.empty()) {
          ++coverage.refailures;
          fail(random_of(dead));
        }
      } else if (!dead.empty()) {
        ASSERT_TRUE(tables_match());
        const NodeId node = random_of(dead);
        namenode.set_node_alive(node, true);
        const auto expected = scan_rejoin(namenode, node, target, coverage);
        const std::size_t from = trace.size();
        manager.handle_node_rejoin(node, target);
        std::vector<std::pair<BlockId, NodeId>> victims;
        for (std::size_t i = from; i < trace.size(); ++i) {
          const TraceEvent& event = trace.events()[i];
          if (event.type == TraceEventType::kExcessReplicaDeleted) {
            victims.emplace_back(event.block, event.node);
          }
        }
        ASSERT_EQ(victims, expected) << "rejoin of node " << node.value();
      }
      if (HasFatalFailure()) return;
    }
    ASSERT_TRUE(tables_match());
  }
  // Every branch of both walks ran many times.
  EXPECT_GT(coverage.held_already_queued, 100);
  EXPECT_GT(coverage.held_healthy, 100);
  EXPECT_GT(coverage.queued, 100);
  EXPECT_GT(coverage.queued_corrupt_here, 10);
  EXPECT_GT(coverage.queued_after_queued, 10);
  EXPECT_GT(coverage.refailures, 10);
  EXPECT_GT(coverage.held_without_excess, 100);
  EXPECT_GT(coverage.victims, 100);
  EXPECT_GT(coverage.victim_spares_promoted, 10);
  EXPECT_GT(coverage.victim_promoted, 10);
  EXPECT_GT(coverage.victim_by_id, 10);
  EXPECT_GT(coverage.repeated_drops, 10);
}

}  // namespace
}  // namespace ignem
