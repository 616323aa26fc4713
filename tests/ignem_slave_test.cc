#include "core/ignem_slave.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "sim/simulator.h"

namespace ignem {
namespace {

class FakeLiveness : public JobLivenessOracle {
 public:
  bool is_job_running(JobId job) const override {
    return running.contains(job);
  }
  std::set<JobId> running;
};

class IgnemSlaveTest : public ::testing::Test {
 protected:
  void build(Bytes capacity = 1 * kGiB,
             QueueOrder policy = QueueOrder::kSmallestJobFirst) {
    DeviceProfile profile = hdd_profile();
    profile.access_jitter = 0.0;
    datanode_ = std::make_unique<DataNode>(sim_, NodeId(0), profile,
                                           capacity, Rng(1));
    config_.slave_memory_capacity = capacity;
    config_.policy = policy;
    slave_ = std::make_unique<IgnemSlave>(sim_, *datanode_, config_,
                                          &liveness_);
  }

  PendingMigration command(std::int64_t block, std::int64_t job,
                           Bytes job_input = 64 * kMiB,
                           Bytes bytes = 64 * kMiB,
                           EvictionMode mode = EvictionMode::kExplicit) {
    datanode_->add_block(BlockId(block), bytes);
    liveness_.running.insert(JobId(job));
    PendingMigration m;
    m.block = BlockId(block);
    m.bytes = bytes;
    m.job = JobId(job);
    m.job_input_bytes = job_input;
    m.eviction = mode;
    return m;
  }

  Simulator sim_;
  IgnemConfig config_;
  FakeLiveness liveness_;
  std::unique_ptr<DataNode> datanode_;
  std::unique_ptr<IgnemSlave> slave_;
};

TEST_F(IgnemSlaveTest, MigratesBlockIntoCache) {
  build();
  slave_->handle_migrate_batch({command(1, 1)});
  EXPECT_TRUE(slave_->migration_in_progress());
  sim_.run();
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));
  EXPECT_TRUE(slave_->holds(BlockId(1)));
  EXPECT_EQ(slave_->stats().migrations_completed, 1u);
  EXPECT_EQ(slave_->stats().bytes_migrated, 64 * kMiB);
}

TEST_F(IgnemSlaveTest, OneMigrationAtATime) {
  build();
  slave_->handle_migrate_batch({command(1, 1), command(2, 1)});
  // Exactly one disk request at a time (§III-A1).
  EXPECT_EQ(datanode_->primary_device().active_requests(), 1u);
  sim_.run_until([&] { return slave_->stats().migrations_completed == 1; });
  EXPECT_LE(datanode_->primary_device().active_requests(), 1u);
  sim_.run();
  EXPECT_EQ(slave_->stats().migrations_completed, 2u);
}

TEST_F(IgnemSlaveTest, WorkConservingStartsImmediately) {
  build();
  slave_->handle_migrate_batch({command(1, 1)});
  EXPECT_TRUE(slave_->migration_in_progress());  // no artificial delay
}

TEST_F(IgnemSlaveTest, SmallestJobMigratesFirst) {
  build();
  // Queue order: big job arrives first, small job second — small one wins.
  auto big = command(1, 1, 10 * kGiB);
  auto small = command(2, 2, 1 * kMiB);
  slave_->handle_migrate_batch({big, small});
  // Block 1's migration may already be in flight (it was the only entry when
  // it arrived)? No: the batch is processed atomically before maybe_start.
  sim_.run_until([&] { return slave_->stats().migrations_completed == 1; });
  EXPECT_TRUE(datanode_->cache().contains(BlockId(2)));
  EXPECT_FALSE(datanode_->cache().contains(BlockId(1)));
  sim_.run();
}

TEST_F(IgnemSlaveTest, StartedMigrationNeverPreempted) {
  build();
  slave_->handle_migrate_batch({command(1, 1, 10 * kGiB)});
  EXPECT_TRUE(slave_->migration_in_progress());
  // A smaller job arrives while block 1 is mid-flight.
  slave_->handle_migrate_batch({command(2, 2, 1 * kMiB)});
  sim_.run_until([&] { return slave_->stats().migrations_completed == 1; });
  // The first completion is still block 1.
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));
  sim_.run();
}

TEST_F(IgnemSlaveTest, ExplicitEvictionFreesMemory) {
  build();
  slave_->handle_migrate_batch({command(1, 1)});
  sim_.run();
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));
  slave_->handle_evict_batch(JobId(1), {BlockId(1)});
  EXPECT_FALSE(datanode_->cache().contains(BlockId(1)));
  EXPECT_EQ(slave_->stats().evictions, 1u);
  EXPECT_EQ(slave_->locked_bytes(), 0);
}

TEST_F(IgnemSlaveTest, BlockHeldWhileAnyReferenceRemains) {
  build();
  slave_->handle_migrate_batch({command(1, 1), command(1, 2)});
  sim_.run();
  slave_->handle_evict_batch(JobId(1), {BlockId(1)});
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));  // job 2 still needs it
  slave_->handle_evict_batch(JobId(2), {BlockId(1)});
  EXPECT_FALSE(datanode_->cache().contains(BlockId(1)));
}

TEST_F(IgnemSlaveTest, ImplicitEvictionOnRead) {
  build();
  auto cmd = command(1, 1, 64 * kMiB, 64 * kMiB, EvictionMode::kImplicit);
  slave_->handle_migrate_batch({cmd});
  sim_.run();
  ASSERT_TRUE(datanode_->cache().contains(BlockId(1)));
  // The job reads the block: reference drops, block evicted.
  datanode_->read_block(BlockId(1), JobId(1), [](const BlockReadResult&) {});
  sim_.run();
  EXPECT_FALSE(datanode_->cache().contains(BlockId(1)));
}

TEST_F(IgnemSlaveTest, ExplicitModeSurvivesRead) {
  build();
  slave_->handle_migrate_batch({command(1, 1)});  // explicit by default here
  sim_.run();
  datanode_->read_block(BlockId(1), JobId(1), [](const BlockReadResult&) {});
  sim_.run();
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));  // until evict RPC
}

TEST_F(IgnemSlaveTest, ForeignJobReadsDoNotEvict) {
  build();
  auto cmd = command(1, 1, 64 * kMiB, 64 * kMiB, EvictionMode::kImplicit);
  slave_->handle_migrate_batch({cmd});
  sim_.run();
  datanode_->read_block(BlockId(1), JobId(99), [](const BlockReadResult&) {});
  sim_.run();
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));
}

TEST_F(IgnemSlaveTest, MissedReadDiscardsQueuedCommand) {
  build();
  // Block 1 is large so block 2 is still queued when its foreground read
  // completes.
  auto first = command(1, 1, 1 * kMiB, 512 * kMiB, EvictionMode::kImplicit);
  auto queued = command(2, 2, 10 * kGiB, 64 * kMiB, EvictionMode::kImplicit);
  slave_->handle_migrate_batch({first, queued});
  // Job 2's read beats its migration (block 2 is queued behind block 1).
  datanode_->read_block(BlockId(2), JobId(2), [](const BlockReadResult&) {});
  sim_.run();
  EXPECT_EQ(slave_->stats().commands_discarded_missed_read, 1u);
  EXPECT_FALSE(datanode_->cache().contains(BlockId(2)));  // never migrated
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));
}

TEST_F(IgnemSlaveTest, MemoryPressureStallsQueue) {
  build(/*capacity=*/100 * kMiB);
  slave_->handle_migrate_batch({command(1, 1, 1 * kMiB, 64 * kMiB),
                                command(2, 2, 2 * kMiB, 64 * kMiB)});
  sim_.run();
  // Only one 64 MiB block fits in 100 MiB.
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));
  EXPECT_FALSE(datanode_->cache().contains(BlockId(2)));
  EXPECT_EQ(slave_->queue_depth(), 1u);
  // Eviction unblocks the stalled queue.
  slave_->handle_evict_batch(JobId(1), {BlockId(1)});
  sim_.run();
  EXPECT_TRUE(datanode_->cache().contains(BlockId(2)));
}

TEST_F(IgnemSlaveTest, CleanupReapsDeadJobsUnderPressure) {
  // 64 MiB locked out of 80 MiB puts occupancy at 0.8, the cleanup trigger.
  build(/*capacity=*/80 * kMiB);
  slave_->handle_migrate_batch({command(1, 1, 1 * kMiB, 64 * kMiB)});
  sim_.run();
  ASSERT_TRUE(datanode_->cache().contains(BlockId(1)));
  // Job 1 dies without sending its evict RPC (§III-A4).
  liveness_.running.erase(JobId(1));
  // New work hits the occupancy threshold and triggers cleanup.
  slave_->handle_migrate_batch({command(2, 2, 2 * kMiB, 64 * kMiB)});
  sim_.run();
  EXPECT_GE(slave_->stats().cleanup_rounds, 1u);
  EXPECT_GE(slave_->stats().references_reaped, 1u);
  EXPECT_FALSE(datanode_->cache().contains(BlockId(1)));  // orphan reclaimed
  EXPECT_TRUE(datanode_->cache().contains(BlockId(2)));
}

TEST_F(IgnemSlaveTest, CleanupSparesLiveJobs) {
  build(/*capacity=*/80 * kMiB);
  slave_->handle_migrate_batch({command(1, 1, 1 * kMiB, 64 * kMiB)});
  sim_.run();
  // Job 1 is alive; the stalled command must not steal its memory.
  slave_->handle_migrate_batch({command(2, 2, 2 * kMiB, 64 * kMiB)});
  sim_.run();
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));
  EXPECT_FALSE(datanode_->cache().contains(BlockId(2)));
}

TEST_F(IgnemSlaveTest, MasterFailurePurgesEverything) {
  build();
  slave_->handle_migrate_batch({command(1, 1), command(2, 2)});
  sim_.run_until([&] { return slave_->stats().migrations_completed == 1; });
  slave_->on_master_failure();
  EXPECT_EQ(slave_->locked_bytes(), 0);
  EXPECT_EQ(slave_->queue_depth(), 0u);
  EXPECT_FALSE(slave_->migration_in_progress());
  sim_.run();
  // The aborted migration never completes.
  EXPECT_EQ(slave_->stats().migrations_completed, 1u);
}

TEST_F(IgnemSlaveTest, SlaveRestartDropsState) {
  build();
  slave_->handle_migrate_batch({command(1, 1)});
  sim_.run();
  datanode_->fail();
  slave_->reset();
  datanode_->restart();
  EXPECT_EQ(slave_->locked_bytes(), 0);
  EXPECT_FALSE(slave_->holds(BlockId(1)));
  // New commands work after restart.
  slave_->handle_migrate_batch({command(2, 2)});
  sim_.run();
  EXPECT_TRUE(datanode_->cache().contains(BlockId(2)));
}

TEST_F(IgnemSlaveTest, EvictBeforeMigrationStartsCancelsQueued) {
  build();
  slave_->handle_migrate_batch(
      {command(1, 1, 1 * kMiB), command(2, 2, 10 * kGiB)});
  // Block 2 is queued; job 2 finishes before it migrates.
  slave_->handle_evict_batch(JobId(2), {BlockId(2)});
  sim_.run();
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));
  EXPECT_FALSE(datanode_->cache().contains(BlockId(2)));
  EXPECT_EQ(slave_->stats().migrations_completed, 1u);
}

TEST_F(IgnemSlaveTest, EvictMidMigrationDropsOnCompletion) {
  build();
  slave_->handle_migrate_batch({command(1, 1)});
  EXPECT_TRUE(slave_->migration_in_progress());
  slave_->handle_evict_batch(JobId(1), {BlockId(1)});
  sim_.run();
  // Migration finished (no preemption) but the block was dropped at once.
  EXPECT_EQ(slave_->stats().migrations_completed, 1u);
  EXPECT_FALSE(datanode_->cache().contains(BlockId(1)));
}

}  // namespace
}  // namespace ignem
