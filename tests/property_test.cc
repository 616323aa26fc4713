// Cross-cutting property suites, parameterized over seeds and modes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/testbed.h"
#include "test_util.h"
#include "workload/swim.h"

namespace ignem {
namespace {

TestbedConfig config_for(RunMode mode, std::uint64_t seed) {
  TestbedConfig config;
  config.mode = mode;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 64 * kGiB;
  config.seed = test::seed_for(seed);
  return config;
}

SwimConfig swim_for(std::uint64_t seed) {
  SwimConfig config;
  config.job_count = 25;
  config.total_input = 6 * kGiB;
  config.tail_max = 2 * kGiB;
  config.mean_interarrival = Duration::seconds(1.5);
  config.seed = test::seed_for(seed);
  return config;
}

// ---------------------------------------------------------------------------
// Property: per-seed invariants of a full Ignem run.
class IgnemRunProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IgnemRunProperty, MemoryReclaimedAndReadsConsistent) {
  const std::uint64_t seed = GetParam();
  Testbed testbed(config_for(RunMode::kIgnem, seed));
  testbed.run_workload(build_swim_workload(testbed, swim_for(seed)));

  // 1. No migration memory leaks once all jobs completed.
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(testbed.datanode(NodeId(i)).cache().used(), 0) << "seed " << seed;
  }
  // 2. Every job produced exactly one record; durations positive.
  EXPECT_EQ(testbed.metrics().jobs().size(), 25u);
  for (const auto& job : testbed.metrics().jobs()) {
    EXPECT_GT(job.duration.to_seconds(), 0.0);
    EXPECT_GE(job.first_task_start, job.submit);
    EXPECT_GE(job.end, job.first_task_start);
  }
  // 3. Do-not-harm at the observable level: memory-served reads are never
  //    slower than the slowest disk-served read of the same size class.
  double max_memory_read = 0, min_disk_read = 1e18;
  for (const auto& read : testbed.metrics().block_reads()) {
    if (read.bytes < 32 * kMiB || read.remote) continue;
    if (read.from_memory) {
      max_memory_read = std::max(max_memory_read, read.duration.to_seconds());
    } else {
      min_disk_read = std::min(min_disk_read, read.duration.to_seconds());
    }
  }
  if (max_memory_read > 0 && min_disk_read < 1e18) {
    EXPECT_LT(max_memory_read, min_disk_read)
        << "a RAM read was slower than a disk read (seed " << seed << ")";
  }
  // 4. Task accounting: every map task's read time fits in its duration.
  for (const auto& task : testbed.metrics().tasks()) {
    EXPECT_LE(task.read_time.to_seconds(), task.duration.to_seconds() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IgnemRunProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

// ---------------------------------------------------------------------------
// Property: mode orderings hold across seeds.
class ModeOrderingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModeOrderingProperty, RamUpperBoundsIgnemWhichUpperBoundsNothing) {
  const std::uint64_t seed = GetParam();
  auto mean_duration = [&](RunMode mode) {
    Testbed testbed(config_for(mode, seed));
    testbed.run_workload(build_swim_workload(testbed, swim_for(seed)));
    return testbed.metrics().mean_job_duration_seconds();
  };
  const double hdfs = mean_duration(RunMode::kHdfs);
  const double ram = mean_duration(RunMode::kHdfsInputsInRam);
  const double ignem = mean_duration(RunMode::kIgnem);
  EXPECT_LT(ram, hdfs) << "seed " << seed;
  EXPECT_LE(ignem, hdfs * 1.02) << "seed " << seed;
  EXPECT_GE(ignem, ram * 0.95) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeOrderingProperty,
                         ::testing::Values(7u, 23u, 51u));

// ---------------------------------------------------------------------------
// Property: simulated time only moves forward; block reads are causal.
class CausalityProperty
    : public ::testing::TestWithParam<std::tuple<RunMode, std::uint64_t>> {};

TEST_P(CausalityProperty, RecordsAreCausal) {
  const auto [mode, seed] = GetParam();
  Testbed testbed(config_for(mode, seed));
  testbed.run_workload(build_swim_workload(testbed, swim_for(seed)));
  for (const auto& read : testbed.metrics().block_reads()) {
    EXPECT_GE(read.duration.to_seconds(), 0.0);
    EXPECT_GE(read.start, SimTime::zero());
  }
  for (const auto& job : testbed.metrics().jobs()) {
    EXPECT_EQ((job.end - job.submit).count_micros(),
              job.duration.count_micros());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, CausalityProperty,
    ::testing::Combine(::testing::Values(RunMode::kHdfs, RunMode::kIgnem,
                                         RunMode::kHdfsInputsInRam,
                                         RunMode::kInstantMigration),
                       ::testing::Values(5u, 13u)));

// ---------------------------------------------------------------------------
// Property: byte conservation at the device layer — the bytes read from
// primary devices across the cluster are at least the unique input bytes
// actually served from disk.
class ConservationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationProperty, DeviceBytesCoverDiskReads) {
  const std::uint64_t seed = GetParam();
  Testbed testbed(config_for(RunMode::kHdfs, seed));
  testbed.run_workload(build_swim_workload(testbed, swim_for(seed)));
  Bytes disk_read_bytes = 0;
  for (const auto& read : testbed.metrics().block_reads()) {
    if (!read.from_memory) disk_read_bytes += read.bytes;
  }
  Bytes device_bytes = 0;
  for (std::int64_t i = 0; i < 4; ++i) {
    device_bytes +=
        testbed.datanode(NodeId(i)).primary_device().total_bytes_completed();
  }
  EXPECT_GE(device_bytes, disk_read_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty,
                         ::testing::Values(3u, 31u));

// ---------------------------------------------------------------------------
// Property: tier-residency conservation of the paper's two-tier stack with
// a 1 GiB pool, swept over 20 seeds. The pool's move counts, its contents
// and its capacity must agree at every end of run.
class TierResidencyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TierResidencyProperty, PoolsStayExclusiveBoundedAndBalanced) {
  const std::uint64_t seed = GetParam();
  TestbedConfig config = config_for(RunMode::kIgnem, seed);
  config.check_invariants = true;
  config.cache_capacity_per_node = 1 * kGiB;

  Testbed testbed(config);
  testbed.run_workload(build_swim_workload(testbed, swim_for(seed)));

  for (std::int64_t i = 0; i < 4; ++i) {
    const BufferCache& pool = testbed.datanode(NodeId(i)).cache();
    const PoolStats& moves = pool.stats();
    // 1. Pool occupancy never exceeded the pool's capacity.
    EXPECT_LE(pool.used(), pool.capacity())
        << "node " << i << " seed " << seed;
    EXPECT_LE(pool.peak_used(), pool.capacity())
        << "node " << i << " seed " << seed;
    // 2. Copy conservation: whatever entered the pool and was not dropped
    //    is exactly what is still resident.
    EXPECT_EQ(moves.promotes - moves.demotes, pool.block_count())
        << "node " << i << " seed " << seed;
    EXPECT_GE(moves.promotes, moves.demotes)
        << "node " << i << " seed " << seed;
  }
  ASSERT_NE(testbed.invariant_checker(), nullptr);
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << "seed " << seed << '\n'
      << testbed.invariant_checker()->report();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TierResidencyProperty,
                         ::testing::Range<std::uint64_t>(1u, 21u));

}  // namespace
}  // namespace ignem
