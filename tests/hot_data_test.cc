#include "core/hot_data.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/testbed.h"
#include "sim/simulator.h"
#include "workload/standalone.h"
#include "workload/swim.h"

namespace ignem {
namespace {

class HotDataUnitTest : public ::testing::Test {
 protected:
  void build(Bytes capacity = 1 * kGiB, int threshold = 2) {
    DeviceProfile profile = hdd_profile();
    profile.access_jitter = 0.0;
    datanode_ = std::make_unique<DataNode>(
        sim_, NodeId(0), profile, capacity, Rng(1));
    promoter_ = std::make_unique<HotDataPromoter>(sim_, *datanode_, threshold);
  }

  void read(std::int64_t block) {
    datanode_->read_block(BlockId(block), 64 * kMiB, JobId(1),
                          [](const BlockReadResult&) {});
    sim_.run();
  }

  Simulator sim_;
  std::unique_ptr<DataNode> datanode_;
  std::unique_ptr<HotDataPromoter> promoter_;
};

TEST_F(HotDataUnitTest, SingleReadNeverPromotes) {
  build();
  datanode_->add_block(BlockId(1), 64 * kMiB);
  read(1);
  EXPECT_FALSE(promoter_->promoted(BlockId(1)));
  EXPECT_EQ(promoter_->stats().promotions, 0u);
}

TEST_F(HotDataUnitTest, SecondReadPromotes) {
  build();
  datanode_->add_block(BlockId(1), 64 * kMiB);
  read(1);
  read(1);
  EXPECT_TRUE(promoter_->promoted(BlockId(1)));
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));
  EXPECT_EQ(promoter_->stats().promotions, 1u);
  EXPECT_EQ(promoter_->stats().bytes_promoted, 64 * kMiB);
}

TEST_F(HotDataUnitTest, PromotedBlockServedFromMemory) {
  build();
  datanode_->add_block(BlockId(1), 64 * kMiB);
  read(1);
  read(1);
  BlockReadResult third{};
  datanode_->read_block(BlockId(1), 64 * kMiB, JobId(1),
                        [&](const BlockReadResult& r) { third = r; });
  sim_.run();
  EXPECT_TRUE(third.from_memory);
}

TEST_F(HotDataUnitTest, ThresholdRespected) {
  build(1 * kGiB, /*threshold=*/3);
  datanode_->add_block(BlockId(1), 64 * kMiB);
  read(1);
  read(1);
  EXPECT_FALSE(promoter_->promoted(BlockId(1)));
  read(1);
  EXPECT_TRUE(promoter_->promoted(BlockId(1)));
}

TEST_F(HotDataUnitTest, LruEvictionUnderPressure) {
  build(/*capacity=*/128 * kMiB);
  datanode_->add_block(BlockId(1), 64 * kMiB);
  datanode_->add_block(BlockId(2), 64 * kMiB);
  datanode_->add_block(BlockId(3), 64 * kMiB);
  read(1);
  read(1);  // promote 1
  read(2);
  read(2);  // promote 2 (cache now full)
  read(1);  // touch 1 so 2 is the LRU victim
  read(3);
  read(3);  // promote 3, evicting 2
  EXPECT_TRUE(promoter_->promoted(BlockId(1)));
  EXPECT_FALSE(promoter_->promoted(BlockId(2)));
  EXPECT_TRUE(promoter_->promoted(BlockId(3)));
  EXPECT_EQ(promoter_->stats().evictions, 1u);
}

// --- Integration: the paper's §I/§V claim ---

TestbedConfig testbed_config(RunMode mode) {
  TestbedConfig config;
  config.mode = mode;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 32 * kGiB;
  config.seed = 31;
  return config;
}

TEST(HotDataIntegration, UselessForSinglyReadWorkload) {
  // SWIM inputs are singly read: hot-data promotion must change nothing.
  SwimConfig swim;
  swim.job_count = 20;
  swim.total_input = 4 * kGiB;
  swim.tail_max = 1 * kGiB;
  swim.seed = 8;

  Testbed plain(testbed_config(RunMode::kHdfs));
  plain.run_workload(build_swim_workload(plain, swim));
  Testbed hot(testbed_config(RunMode::kHotDataPromotion));
  hot.run_workload(build_swim_workload(hot, swim));

  EXPECT_EQ(hot.metrics().memory_read_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(hot.metrics().mean_job_duration_seconds(),
                   plain.metrics().mean_job_duration_seconds());
}

TEST(HotDataIntegration, HelpsIterativeWorkload) {
  // Five passes over the same file: promotion kicks in after pass 2.
  auto run_passes = [](RunMode mode) {
    Testbed testbed(testbed_config(mode));
    JobSpec pass = make_grep_job(testbed, "/iter", 512 * kMiB);
    std::vector<ScheduledJob> jobs;
    for (int i = 0; i < 5; ++i) {
      ScheduledJob job;
      job.arrival = Duration::seconds(i * 40.0);  // strictly sequential
      job.spec = pass;
      job.spec.name = "pass-" + std::to_string(i);
      jobs.push_back(job);
    }
    testbed.run_workload(std::move(jobs));
    return testbed.metrics();
  };
  const RunMetrics hot = run_passes(RunMode::kHotDataPromotion);
  EXPECT_GT(hot.memory_read_fraction(), 0.25);  // later passes hit memory
}

// The promoter lives in the DataNode process. A crash while a promotion's
// page-in is in flight must kill the page-in with the pool it reserved in,
// and the restarted node must promote the block afresh.
TEST(HotDataIntegration, NodeCrashMidPageInAbortsThePromotion) {
  Testbed testbed(testbed_config(RunMode::kHotDataPromotion));
  const FileId file = testbed.create_file("/hot", 64 * kMiB);
  const BlockId block = testbed.namenode().file(file).blocks.front();
  const NodeId node = testbed.namenode().block(block).replicas.front();
  DataNode& datanode = testbed.datanode(node);
  const HotDataPromoter& promoter = *testbed.hot_data_promoter(node);
  const auto read_twice = [&] {
    for (int i = 0; i < 2; ++i) {
      bool done = false;
      datanode.read_block(block, 64 * kMiB, JobId(1),
                          [&](const BlockReadResult&) { done = true; });
      testbed.sim().run_until([&] { return done; });
    }
  };
  const auto settle = [&] {
    testbed.sim().run(testbed.sim().now() + Duration::seconds(30.0));
  };

  read_twice();
  ASSERT_GT(datanode.cache().reserved(), 0u) << "no page-in in flight";
  testbed.fail_node(node);
  settle();
  EXPECT_FALSE(promoter.promoted(block));
  EXPECT_EQ(promoter.stats().promotions, 0u);
  EXPECT_EQ(datanode.cache().used(), 0u);

  testbed.restart_node(node);
  read_twice();
  settle();
  EXPECT_TRUE(promoter.promoted(block));
  EXPECT_TRUE(datanode.cache().contains(block));
  EXPECT_EQ(promoter.stats().promotions, 1u);
}

// An integrity purge of a corrupt pool copy goes through the promoter: its
// LRU list drops the block with the pool, and the block's next read, from
// the clean disk replica, promotes it again.
TEST(HotDataIntegration, CorruptCopyPurgeLeavesTheLruList) {
  Testbed testbed(testbed_config(RunMode::kHotDataPromotion));
  const FileId file = testbed.create_file("/hot", 64 * kMiB);
  const BlockId block = testbed.namenode().file(file).blocks.front();
  const NodeId node = testbed.namenode().block(block).replicas.front();
  DataNode& datanode = testbed.datanode(node);
  const HotDataPromoter& promoter = *testbed.hot_data_promoter(node);
  const auto read = [&] {
    BlockReadResult result;
    bool done = false;
    datanode.read_block(block, 64 * kMiB, JobId(1),
                        [&](const BlockReadResult& r) {
                          result = r;
                          done = true;
                        });
    testbed.sim().run_until([&] { return done; });
    return result;
  };
  const auto settle = [&] {
    testbed.sim().run(testbed.sim().now() + Duration::seconds(30.0));
  };

  read();
  read();
  settle();
  ASSERT_TRUE(promoter.promoted(block));
  testbed.corrupt_cached_replica(node, block);
  const BlockReadResult bad = read();
  ASSERT_TRUE(bad.from_memory);
  ASSERT_TRUE(bad.corrupt);
  EXPECT_EQ(testbed.integrity_manager().stats().cache_copies_purged, 1u);
  EXPECT_FALSE(datanode.cache().contains(block));
  EXPECT_FALSE(promoter.promoted(block));

  const BlockReadResult clean = read();
  EXPECT_FALSE(clean.from_memory);
  EXPECT_FALSE(clean.corrupt);
  settle();
  EXPECT_TRUE(promoter.promoted(block));
  EXPECT_TRUE(datanode.cache().contains(block));
  EXPECT_FALSE(datanode.cache().is_corrupt(block));
  EXPECT_EQ(promoter.stats().promotions, 2u);
  EXPECT_EQ(promoter.stats().evictions, 0u);
}

}  // namespace
}  // namespace ignem
