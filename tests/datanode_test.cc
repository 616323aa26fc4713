#include "dfs/datanode.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "sim/simulator.h"

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
      : node_(sim_, NodeId(0), two_tier_specs(quiet_hdd(), 1 * kGiB), Rng(1)) {}

  Simulator sim_;
  DataNode node_;
};

TEST_F(DataNodeTest, DiskReadIsSlowCacheReadIsFast) {
  node_.add_block(BlockId(1), 64 * kMiB);
  BlockReadResult disk{};
  node_.read_block(BlockId(1), JobId(1),
                   [&](const BlockReadResult& r) { disk = r; });
  sim_.run();
  EXPECT_FALSE(disk.from_memory);
  EXPECT_GT(disk.duration.to_seconds(), 0.1);

  ASSERT_TRUE(node_.cache().lock(BlockId(1), 64 * kMiB));
  BlockReadResult ram{};
  node_.read_block(BlockId(1), JobId(1),
                   [&](const BlockReadResult& r) { ram = r; });
  sim_.run();
  EXPECT_TRUE(ram.from_memory);
  EXPECT_LT(ram.duration.to_seconds(), disk.duration.to_seconds() / 10);
}

TEST_F(DataNodeTest, ListenerFiresAfterRead) {
  RecordingListener listener;
  node_.set_read_listener(&listener);
  node_.add_block(BlockId(7), 1 * kMiB);
  node_.read_block(BlockId(7), JobId(3), [](const BlockReadResult&) {});
  EXPECT_TRUE(listener.events.empty());  // fires on completion, not start
  sim_.run();
  ASSERT_EQ(listener.events.size(), 1u);
  EXPECT_EQ(listener.events[0].node, NodeId(0));
  EXPECT_EQ(listener.events[0].block, BlockId(7));
  EXPECT_EQ(listener.events[0].job, JobId(3));
}

TEST_F(DataNodeTest, ReadUnknownBlockRejected) {
  EXPECT_THROW(node_.read_block(BlockId(9), JobId(1),
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
  node_.read_block(BlockId(1), JobId(1),
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
  node_.read_block(BlockId(1), JobId(1), [&](const BlockReadResult& r) {
    read_done = true;
    EXPECT_FALSE(r.from_memory);  // the locked pool did not survive
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

}  // namespace
}  // namespace ignem
