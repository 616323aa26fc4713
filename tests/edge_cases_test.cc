// Cross-cutting edge cases that don't belong to a single module's suite.
#include <gtest/gtest.h>

#include "core/testbed.h"
#include "net/network.h"
#include "test_util.h"
#include "workload/standalone.h"

namespace ignem {
namespace {

TestbedConfig small(RunMode mode) {
  TestbedConfig config;
  config.mode = mode;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 4;
  config.cache_capacity_per_node = 32 * kGiB;
  config.seed = test::seed_for(config.seed);
  return config;
}

TEST(EdgeCases, ReduceTasksWithZeroShuffleSkipStage) {
  Testbed testbed(small(RunMode::kHdfs));
  JobSpec spec;
  spec.name = "no-shuffle";
  spec.inputs = {testbed.create_file("/a", 64 * kMiB)};
  spec.compute.map_output_ratio = 0.0;  // nothing to shuffle
  spec.compute.reduce_tasks = 4;        // configured but moot
  testbed.run_workload({{Duration::zero(), spec}});
  for (const auto& task : testbed.metrics().tasks()) {
    EXPECT_EQ(task.kind, TaskKind::kMap);
  }
}

TEST(EdgeCases, MultiFileJobReadsEveryBlock) {
  Testbed testbed(small(RunMode::kHdfs));
  JobSpec spec;
  spec.name = "multi";
  spec.inputs = {testbed.create_file("/a", 128 * kMiB),
                 testbed.create_file("/b", 64 * kMiB),
                 testbed.create_file("/c", 32 * kMiB)};
  spec.compute.reduce_tasks = 0;
  testbed.run_workload({{Duration::zero(), spec}});
  EXPECT_EQ(testbed.metrics().tasks().size(), 4u);  // 2 + 1 + 1 blocks
  EXPECT_EQ(testbed.metrics().jobs()[0].input_bytes, 224 * kMiB);
}

TEST(EdgeCases, SubmitJobPreloadsInRamMode) {
  Testbed testbed(small(RunMode::kHdfsInputsInRam));
  JobSpec spec = make_grep_job(testbed, "/g", 128 * kMiB);
  testbed.submit_job(spec, nullptr);
  testbed.run_until_jobs_done();
  EXPECT_EQ(testbed.metrics().memory_read_fraction(), 1.0);
}

TEST(EdgeCases, RepeatedPreloadIsIdempotent) {
  Testbed testbed(small(RunMode::kHdfs));
  const FileId file = testbed.create_file("/a", 64 * kMiB);
  testbed.preload({file});
  const Bytes used = testbed.datanode(NodeId(0)).cache().used() +
                     testbed.datanode(NodeId(1)).cache().used() +
                     testbed.datanode(NodeId(2)).cache().used() +
                     testbed.datanode(NodeId(3)).cache().used();
  testbed.preload({file});
  const Bytes used_after = testbed.datanode(NodeId(0)).cache().used() +
                           testbed.datanode(NodeId(1)).cache().used() +
                           testbed.datanode(NodeId(2)).cache().used() +
                           testbed.datanode(NodeId(3)).cache().used();
  EXPECT_EQ(used, used_after);
}

TEST(EdgeCases, BlockAlreadyInMemoryServesSecondJobWithoutRemigration) {
  Testbed testbed(small(RunMode::kIgnem));
  JobSpec first = make_grep_job(testbed, "/shared", 64 * kMiB);
  first.eviction = EvictionMode::kExplicit;
  // Two jobs over the same file, back to back. The second job's migrate
  // command finds the block already resident (or queued) — reference
  // bookkeeping must not double-migrate.
  JobSpec second = first;
  second.name = "grep-2";
  testbed.run_workload({{Duration::zero(), first},
                        {Duration::millis(100), second}});
  Bytes migrated = 0;
  for (std::int64_t i = 0; i < 4; ++i) {
    migrated += testbed.ignem_slave(NodeId(i))->stats().bytes_migrated;
  }
  EXPECT_LE(migrated, 2 * 64 * kMiB);  // at most one pass over the file (+
                                       // different replica choices per job)
  // And nothing leaks after both complete.
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(testbed.datanode(NodeId(i)).cache().used(), 0);
  }
}

TEST(EdgeCases, NetworkZeroByteTransferCompletes) {
  Simulator sim;
  Network net(sim, 2, NetworkProfile{});
  bool done = false;
  net.transfer(NodeId(0), NodeId(1), 0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(EdgeCases, GrepJobIsMapOnly) {
  Testbed testbed(small(RunMode::kHdfs));
  const JobSpec spec = make_grep_job(testbed, "/g", 128 * kMiB);
  EXPECT_EQ(spec.compute.reduce_tasks, 0);
  testbed.run_workload({{Duration::zero(), spec}});
  EXPECT_EQ(testbed.metrics().task_durations_seconds(TaskKind::kReduce).count(),
            0u);
}

TEST(EdgeCases, EmptyMetricsAggregatesAreZero) {
  RunMetrics metrics;
  EXPECT_EQ(metrics.mean_job_duration_seconds(), 0.0);
  EXPECT_EQ(metrics.mean_map_task_seconds(), 0.0);
  EXPECT_EQ(metrics.mean_block_read_seconds(), 0.0);
  EXPECT_EQ(metrics.memory_read_fraction(), 0.0);
}

TEST(EdgeCases, LargeClusterSmokes) {
  TestbedConfig config = small(RunMode::kIgnem);
  config.cluster.node_count = 40;  // well past the paper's scale
  Testbed testbed(config);
  JobSpec spec = make_grep_job(testbed, "/g", 2 * kGiB);
  testbed.run_workload({{Duration::zero(), spec}});
  EXPECT_EQ(testbed.metrics().jobs().size(), 1u);
}

}  // namespace
}  // namespace ignem
