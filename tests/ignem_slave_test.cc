#include "core/ignem_slave.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/invariant_checker.h"
#include "obs/trace_recorder.h"
#include "sim/simulator.h"
#include "test_util.h"

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
    config_.policy = policy;
    slave_ = std::make_unique<IgnemSlave>(sim_, *datanode_, config_,
                                          &liveness_);
  }

  PendingMigration command(std::int64_t block, std::int64_t job,
                           Bytes job_input = 64 * kMiB,
                           Bytes bytes = 64 * kMiB) {
    datanode_->add_block(BlockId(block), bytes);
    liveness_.running.insert(JobId(job));
    PendingMigration m;
    m.block = BlockId(block);
    m.bytes = bytes;
    m.job = JobId(job);
    m.job_input_bytes = job_input;
    return m;
  }

  /// Job 1 locks two 64 MiB blocks of a 160 MiB pool (80% occupancy, the
  /// cleanup trigger) and stops running without its evict RPC; job 2 then
  /// queues two 64 MiB blocks, and the run drains. Returns the most disk
  /// requests and reserved bytes seen after any event.
  std::pair<std::size_t, Bytes> run_cleanup_scenario() {
    slave_->handle_migrate_batch(
        {command(1, 1, 1 * kMiB), command(2, 1, 1 * kMiB)});
    sim_.run();
    EXPECT_EQ(slave_->locked_bytes(), 128 * kMiB);
    liveness_.running.erase(JobId(1));
    slave_->handle_migrate_batch(
        {command(3, 2, 2 * kMiB), command(4, 2, 2 * kMiB)});
    // run_until tests its predicate before each event; the drained end
    // state is checked by the callers.
    std::size_t max_requests = 0;
    Bytes max_reserved = 0;
    sim_.run_until([&] {
      max_requests = std::max(max_requests,
                              datanode_->primary_device().active_requests());
      max_reserved = std::max(max_reserved, datanode_->cache().reserved());
      return false;
    });
    return {max_requests, max_reserved};
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
  auto cmd = command(1, 1, 64 * kMiB, 64 * kMiB);
  slave_->handle_migrate_batch({cmd});
  sim_.run();
  ASSERT_TRUE(datanode_->cache().contains(BlockId(1)));
  // The job reads the block: reference drops, block evicted.
  datanode_->read_block(BlockId(1), 64 * kMiB, JobId(1),
                        [](const BlockReadResult&) {});
  sim_.run();
  EXPECT_FALSE(datanode_->cache().contains(BlockId(1)));
}

TEST_F(IgnemSlaveTest, ForeignJobReadsDoNotEvict) {
  build();
  auto cmd = command(1, 1, 64 * kMiB, 64 * kMiB);
  slave_->handle_migrate_batch({cmd});
  sim_.run();
  datanode_->read_block(BlockId(1), 64 * kMiB, JobId(99),
                        [](const BlockReadResult&) {});
  sim_.run();
  EXPECT_TRUE(datanode_->cache().contains(BlockId(1)));
}

TEST_F(IgnemSlaveTest, MissedReadDiscardsQueuedCommand) {
  build();
  // Block 1 is large so block 2 is still queued when its foreground read
  // completes.
  auto first = command(1, 1, 1 * kMiB, 512 * kMiB);
  auto queued = command(2, 2, 10 * kGiB, 64 * kMiB);
  slave_->handle_migrate_batch({first, queued});
  // Job 2's read beats its migration (block 2 is queued behind block 1).
  datanode_->read_block(BlockId(2), 64 * kMiB, JobId(2),
                        [](const BlockReadResult&) {});
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

// The cleanup round runs inside maybe_start. Reaping job 1's two blocks
// frees room for both of job 2's, yet the slave still pages in one block at
// a time, and every reservation lands.
TEST_F(IgnemSlaveTest, CleanupStartsOnePageInAtATime) {
  build(/*capacity=*/160 * kMiB);
  const auto [max_requests, max_reserved] = run_cleanup_scenario();
  EXPECT_EQ(slave_->stats().cleanup_rounds, 1u);
  EXPECT_EQ(slave_->stats().references_reaped, 2u);
  EXPECT_EQ(max_requests, 1u);
  EXPECT_EQ(max_reserved, 64 * kMiB);
  EXPECT_EQ(datanode_->cache().reserved(), 0);
  EXPECT_FALSE(datanode_->cache().contains(BlockId(1)));
  EXPECT_FALSE(datanode_->cache().contains(BlockId(2)));
  EXPECT_TRUE(slave_->holds(BlockId(3)));
  EXPECT_TRUE(slave_->holds(BlockId(4)));
  EXPECT_EQ(slave_->locked_bytes(), 128 * kMiB);
  EXPECT_EQ(slave_->stats().migrations_completed, 4u);
}

// The same run, traced, under the default invariant rules: the page-ins
// pass SingleMigrationRule and the pool's lifecycle CacheCapacityRule.
TEST_F(IgnemSlaveTest, CleanupStartsOnePageInAtATimeUnderTheChecker) {
  build(/*capacity=*/160 * kMiB);
  TraceRecorder trace;
  trace.set_clock([this] { return sim_.now(); });
  InvariantChecker checker;
  trace.add_observer(&checker);
  datanode_->set_trace(&trace);
  slave_->set_trace(&trace);
  run_cleanup_scenario();
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(std::count_if(trace.events().begin(), trace.events().end(),
                          [](const TraceEvent& e) {
                            return e.type == TraceEventType::kMigrationStart;
                          }),
            4);
  EXPECT_TRUE(slave_->holds(BlockId(3)));
  EXPECT_TRUE(slave_->holds(BlockId(4)));
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

// ---------------------------------------------------------------------------
// Seeded command streams over a small pool.

/// Counts the page-ins in flight, and the bytes they reserved, from the
/// slave's migration start and complete (or abort) events.
class InFlightMigrations : public TraceObserver {
 public:
  void on_event(const TraceEvent& event) override {
    if (event.type == TraceEventType::kMigrationStart) {
      ++count;
      bytes += event.bytes;
    } else if (event.type == TraceEventType::kMigrationComplete) {
      --count;
      bytes -= event.bytes;
    }
  }
  int count = 0;
  Bytes bytes = 0;
};

/// Totals over the streams, for the coverage checks.
struct StreamTotals {
  std::uint64_t cleanup_rounds = 0;
  std::uint64_t reaping_rounds = 0;
  std::uint64_t references_reaped = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t evictions = 0;
  std::uint64_t discarded_missed_read = 0;
  std::uint64_t master_failures = 0;
  std::uint64_t purges = 0;
};

constexpr std::int64_t kStreamBlocks = 12;
constexpr std::int64_t kStreamJobs = 6;

/// One stream: 400 steps of migrate batches from running jobs (a fifth of
/// them backed off), evict batches, reads by any job, liveness flips, block
/// purges, master failures and time advances, on a 192 MiB pool of 16-64
/// MiB blocks. Returns the first broken invariant, or "" when every check
/// after every step and every event held.
std::string run_stream(std::uint64_t seed, StreamTotals& totals) {
  Simulator sim;
  DeviceProfile profile = hdd_profile();
  profile.access_jitter = 0.0;
  DataNode datanode(sim, NodeId(0), profile, 192 * kMiB, Rng(seed));
  Rng rng(seed);
  std::vector<Bytes> sizes;
  for (std::int64_t b = 0; b < kStreamBlocks; ++b) {
    sizes.push_back(16 * kMiB * rng.uniform_int(1, 4));
    datanode.add_block(BlockId(b), sizes.back());
  }
  std::vector<Bytes> inputs;
  FakeLiveness liveness;
  for (std::int64_t j = 0; j < kStreamJobs; ++j) {
    inputs.push_back(64 * kMiB * rng.uniform_int(1, 8));
    liveness.running.insert(JobId(j));
  }
  IgnemConfig config;
  config.policy = seed % 2 == 0 ? QueueOrder::kFifo
                                : QueueOrder::kSmallestJobFirst;
  IgnemSlave slave(sim, datanode, config, &liveness);
  TraceRecorder trace;
  trace.set_clock([&sim] { return sim.now(); });
  InFlightMigrations in_flight;
  trace.add_observer(&in_flight);
  slave.set_trace(&trace);

  std::uint64_t rounds_seen = 0;
  std::uint64_t reaped_seen = 0;
  const auto check = [&]() -> std::string {
    std::ostringstream out;
    if (in_flight.count > 1) {
      out << in_flight.count << " page-ins in flight";
    } else if (datanode.cache().reserved() != in_flight.bytes) {
      out << "reserved " << datanode.cache().reserved()
          << " B, in-flight page-in " << in_flight.bytes << " B";
    } else if (slave.migration_in_progress() != (in_flight.count == 1)) {
      out << "migration_in_progress disagrees with " << in_flight.count
          << " page-ins in flight";
    }
    for (std::int64_t b = 0; b < kStreamBlocks && out.str().empty(); ++b) {
      if (datanode.cache().contains(BlockId(b)) != slave.holds(BlockId(b))) {
        out << "block " << b << " resident "
            << datanode.cache().contains(BlockId(b)) << " but held "
            << slave.holds(BlockId(b));
      }
    }
    const SlaveStats& stats = slave.stats();
    if (stats.cleanup_rounds != rounds_seen) {
      rounds_seen = stats.cleanup_rounds;
      for (const auto& [block, job] : slave.tracked_references()) {
        if (!liveness.is_job_running(job) && out.str().empty()) {
          out << "job " << job.value() << " is not running, yet its "
              << "reference to block " << block.value()
              << " survived a cleanup round";
        }
      }
      if (stats.references_reaped != reaped_seen) ++totals.reaping_rounds;
      reaped_seen = stats.references_reaped;
    }
    if (!out.str().empty()) {
      out << " (t=" << sim.now().count_micros() << " us)";
    }
    return out.str();
  };
  std::string failure;
  // run_until tests its predicate before each event, so the check runs
  // once more after the last one.
  const auto advance = [&](Duration span) {
    sim.run_until(
        [&] {
          failure = check();
          return !failure.empty();
        },
        sim.now() + span);
    if (failure.empty()) failure = check();
  };
  const auto random_job = [&] {
    return JobId(rng.uniform_int(0, kStreamJobs - 1));
  };
  const auto random_block = [&] {
    return BlockId(rng.uniform_int(0, kStreamBlocks - 1));
  };
  const auto read = [&](BlockId block, JobId job) {
    datanode.read_block(block, sizes[static_cast<std::size_t>(block.value())],
                        job, [](const BlockReadResult&) {});
  };

  for (int step = 0; step < 400 && failure.empty(); ++step) {
    const std::int64_t roll = rng.uniform_int(0, 99);
    if (roll < 30) {
      const JobId job = random_job();
      if (!liveness.is_job_running(job)) continue;  // only live jobs submit
      std::vector<PendingMigration> batch;
      const bool backed_off = rng.next_double() < 0.2;
      for (std::int64_t i = rng.uniform_int(1, 4); i > 0; --i) {
        PendingMigration m;
        m.block = random_block();
        m.bytes = sizes[static_cast<std::size_t>(m.block.value())];
        m.job = job;
        m.job_input_bytes = inputs[static_cast<std::size_t>(job.value())];
        if (backed_off) m.not_before = sim.now() + Duration::millis(400);
        batch.push_back(m);
      }
      slave.handle_migrate_batch(batch);
    } else if (roll < 45) {
      std::vector<BlockId> blocks;
      for (std::int64_t i = rng.uniform_int(1, 4); i > 0; --i) {
        blocks.push_back(random_block());
      }
      slave.handle_evict_batch(random_job(), blocks);
    } else if (roll < 60) {
      read(random_block(), random_job());
    } else if (roll < 72) {
      const JobId job = random_job();
      if (!liveness.running.erase(job)) liveness.running.insert(job);
    } else if (roll < 79) {
      slave.purge_block(random_block());
      ++totals.purges;
    } else if (roll < 81) {
      slave.on_master_failure();
      ++totals.master_failures;
    } else {
      advance(Duration::millis(rng.uniform_int(50, 3000)));
      continue;
    }
    if (failure.empty()) failure = check();
  }
  if (failure.empty()) advance(Duration::seconds(600.0));
  totals.cleanup_rounds += slave.stats().cleanup_rounds;
  totals.references_reaped += slave.stats().references_reaped;
  totals.migrations_completed += slave.stats().migrations_completed;
  totals.evictions += slave.stats().evictions;
  totals.discarded_missed_read += slave.stats().commands_discarded_missed_read;
  return failure;
}

TEST(IgnemSlaveStream, SeededStreamsKeepOnePageInAndNoDeadReferences) {
  StreamTotals totals;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string failure = run_stream(test::seed_for(seed), totals);
    ASSERT_EQ(failure, "") << "seed " << seed;
  }
  std::cout << "cleanup rounds " << totals.cleanup_rounds << " (reaping "
            << totals.reaping_rounds << ", references reaped "
            << totals.references_reaped << "), migrations "
            << totals.migrations_completed << ", evictions "
            << totals.evictions << ", missed-read discards "
            << totals.discarded_missed_read << ", purges " << totals.purges
            << ", master failures " << totals.master_failures << "\n";
  EXPECT_GT(totals.reaping_rounds, 0u);
  EXPECT_GT(totals.cleanup_rounds, totals.reaping_rounds);
  EXPECT_GT(totals.migrations_completed, 0u);
  EXPECT_GT(totals.evictions, 0u);
  EXPECT_GT(totals.discarded_missed_read, 0u);
  EXPECT_GT(totals.master_failures, 0u);
}

}  // namespace
}  // namespace ignem
