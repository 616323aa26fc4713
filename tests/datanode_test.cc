#include "dfs/datanode.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "common/check.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ignem {
namespace {

DeviceProfile quiet_hdd() {
  DeviceProfile p = hdd_profile();
  p.access_jitter = 0.0;
  return p;
}

class RecordingListener : public BlockReadListener {
 public:
  void on_block_read(NodeId node, BlockId block, JobId job) override {
    events.push_back({node, block, job});
  }
  struct Event {
    NodeId node;
    BlockId block;
    JobId job;
  };
  std::vector<Event> events;
};

class DataNodeTest : public ::testing::Test {
 protected:
  DataNodeTest()
      : node_(sim_, NodeId(0), quiet_hdd(), 1 * kGiB, Rng(1)) {}

  Simulator sim_;
  DataNode node_;
};

TEST_F(DataNodeTest, DiskReadIsSlowCacheReadIsFast) {
  node_.add_block(BlockId(1), 64 * kMiB);
  BlockReadResult disk{};
  node_.read_block(BlockId(1), 64 * kMiB, JobId(1),
                   [&](const BlockReadResult& r) { disk = r; });
  sim_.run();
  EXPECT_FALSE(disk.from_memory);
  EXPECT_GT(disk.duration.to_seconds(), 0.1);

  ASSERT_TRUE(node_.cache().lock(BlockId(1), 64 * kMiB));
  BlockReadResult ram{};
  node_.read_block(BlockId(1), 64 * kMiB, JobId(1),
                   [&](const BlockReadResult& r) { ram = r; });
  sim_.run();
  EXPECT_TRUE(ram.from_memory);
  EXPECT_LT(ram.duration.to_seconds(), disk.duration.to_seconds() / 10);
}

TEST_F(DataNodeTest, ListenerFiresAfterRead) {
  RecordingListener listener;
  node_.set_read_listener(&listener);
  node_.add_block(BlockId(7), 1 * kMiB);
  node_.read_block(BlockId(7), 1 * kMiB, JobId(3),
                   [](const BlockReadResult&) {});
  EXPECT_TRUE(listener.events.empty());  // fires on completion, not start
  sim_.run();
  ASSERT_EQ(listener.events.size(), 1u);
  EXPECT_EQ(listener.events[0].node, NodeId(0));
  EXPECT_EQ(listener.events[0].block, BlockId(7));
  EXPECT_EQ(listener.events[0].job, JobId(3));
}

TEST_F(DataNodeTest, ReadUnknownBlockRejected) {
  EXPECT_THROW(node_.read_block(BlockId(9), 64 * kMiB, JobId(1),
                                [](const BlockReadResult&) {}),
               CheckFailure);
}

TEST_F(DataNodeTest, FailClearsCacheAndBlocksReads) {
  node_.add_block(BlockId(1), 64 * kMiB);
  node_.cache().lock(BlockId(1), 64 * kMiB);
  node_.fail();
  EXPECT_FALSE(node_.alive());
  EXPECT_EQ(node_.cache().used(), 0);
  // Dead-node IO fails asynchronously (so clients can retry a replica)
  // rather than crashing the caller.
  BlockReadResult result;
  node_.read_block(BlockId(1), 64 * kMiB, JobId(1),
                   [&](const BlockReadResult& r) { result = r; });
  bool write_done = false;
  node_.write(1, [&] { write_done = true; });
  sim_.run();
  EXPECT_TRUE(result.failed);
  EXPECT_TRUE(write_done);  // lost but completed: barriers never hang
  EXPECT_EQ(node_.primary_device().total_bytes_completed(), 0);
}

TEST_F(DataNodeTest, RestartServesFromDiskAgain) {
  node_.add_block(BlockId(1), 64 * kMiB);
  node_.fail();
  node_.restart();
  EXPECT_TRUE(node_.alive());
  EXPECT_TRUE(node_.has_block(BlockId(1)));  // disk data survives
  bool read_done = false;
  node_.read_block(BlockId(1), 64 * kMiB, JobId(1),
                   [&](const BlockReadResult& r) {
                     read_done = true;
                     EXPECT_FALSE(r.from_memory);  // the pool did not survive
                   });
  sim_.run();
  EXPECT_TRUE(read_done);
}

TEST_F(DataNodeTest, WriteGoesToPrimaryDevice) {
  bool done = false;
  node_.write(64 * kMiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(node_.primary_device().total_bytes_completed(), 64 * kMiB);
}

TEST_F(DataNodeTest, BlockSizeLookup) {
  node_.add_block(BlockId(2), 5 * kMiB);
  EXPECT_EQ(node_.block_size(BlockId(2)), 5 * kMiB);
  EXPECT_THROW(node_.block_size(BlockId(3)), CheckFailure);
}

// The sorted replica table and its rot marks against an ordered-map model.
// Each seeded stream mixes what set-up and repair do to a node: ascending
// appends, re-replication of older ids into the middle, re-adds of a stored
// id (which come back clean), removals (some of absent ids) and rot (some
// of absent ids, which is rejected). After every operation the touched
// block, a random id and the scrub cursor must agree with the model, and the
// whole table is compared every kSweepEvery operations and at the end.
TEST(DataNodeReplicaTable, MatchesOrderedMapModel) {
  struct Replica {
    Bytes size;
    bool rotten = false;  ///< Marked by rot; cleared by a re-add.
  };
  constexpr int kSeeds = 20;
  constexpr int kOps = 5000;
  constexpr int kSweepEvery = 250;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(test::seed_for(700 + seed));
    Simulator sim;
    DataNode node(sim, NodeId(0), quiet_hdd(), 1 * kGiB, Rng(1));
    std::map<BlockId, Replica> model;
    std::int64_t last_id = -1;
    int op = 0;
    const auto add = [&](BlockId block) {
      const Bytes size = rng.uniform_int(1, 64) * kMiB;
      node.add_block(block, size);
      model[block] = {size, false};
    };
    // The first stored id at or after a random one.
    const auto some_stored = [&] {
      const auto it = model.lower_bound(BlockId(rng.uniform_int(0, last_id)));
      return (it == model.end() ? model.begin() : it)->first;
    };
    const auto check_block = [&](BlockId block) {
      const auto it = model.find(block);
      ASSERT_EQ(node.has_block(block), it != model.end())
          << block << " at op " << op;
      if (it == model.end()) {
        ASSERT_FALSE(node.is_corrupt(block)) << block << " at op " << op;
        return;
      }
      const Replica& replica = it->second;
      ASSERT_EQ(node.block_size(block), replica.size)
          << block << " at op " << op;
      ASSERT_EQ(node.is_corrupt(block), replica.rotten)
          << block << " at op " << op;
      // Verification is stored-vs-expected checksum; rot is the mismatch.
      ASSERT_EQ(node.stored_checksum(block) ==
                    DataNode::expected_checksum(block, replica.size),
                !replica.rotten)
          << block << " at op " << op;
    };
    const auto check_cursor = [&](BlockId cursor) {
      const auto next = model.upper_bound(cursor);
      ASSERT_EQ(node.next_block_after(cursor),
                next == model.end() ? BlockId::invalid() : next->first)
          << "cursor " << cursor << " at op " << op;
    };
    for (op = 1; op <= kOps; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 99);
      BlockId touched;
      if (kind < 30 || model.empty()) {
        last_id += rng.uniform_int(1, 3);  // set-up: the next id handed out
        touched = BlockId(last_id);
        add(touched);
      } else if (kind < 45) {
        touched = BlockId(rng.uniform_int(0, last_id));  // re-replication
        add(touched);
      } else if (kind < 55) {
        touched = some_stored();  // repair over a stored, maybe rotten, copy
        add(touched);
      } else if (kind < 85) {
        touched = rng.uniform_int(0, 3) == 0
                      ? BlockId(rng.uniform_int(0, last_id))  // maybe absent
                      : some_stored();
        node.remove_block(touched);
        model.erase(touched);
      } else if (kind < 97) {
        // The mark must survive every later insert and erase of other ids.
        touched = some_stored();
        node.corrupt_block(touched);
        model[touched].rotten = true;
      } else {
        // Rot needs a stored replica; an absent id leaves no mark behind.
        touched = BlockId(rng.uniform_int(0, last_id + 1));
        if (model.contains(touched)) {
          node.corrupt_block(touched);
          model[touched].rotten = true;
        } else {
          ASSERT_THROW(node.corrupt_block(touched), CheckFailure)
              << touched << " at op " << op;
        }
      }

      ASSERT_EQ(node.block_count(), model.size()) << "op " << op;
      const BlockId probe(rng.uniform_int(0, last_id + 1));
      check_block(touched);
      check_block(probe);
      check_cursor(BlockId::invalid());
      check_cursor(touched);
      check_cursor(probe);
      check_cursor(BlockId(last_id + 1));  // past the largest id
      if (op % kSweepEvery == 0 || op == kOps) {
        std::vector<BlockId> ids;
        ids.reserve(model.size());
        for (const auto& [block, replica] : model) {
          ids.push_back(block);
          check_block(block);
        }
        ASSERT_EQ(node.blocks_sorted(), ids) << "op " << op;
      }
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace ignem
