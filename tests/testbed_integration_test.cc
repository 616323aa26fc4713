// Integration tests: the full stack under the paper's four file-system
// configurations, exercising the orderings the evaluation depends on.
#include "core/testbed.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workload/swim.h"

namespace ignem {
namespace {

TestbedConfig mini_config(RunMode mode) {
  TestbedConfig config;
  config.mode = mode;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 64 * kGiB;  // fits preloads
  config.seed = 42;
  return config;
}

SwimConfig mini_swim() {
  SwimConfig config;
  config.job_count = 30;
  config.total_input = 8 * kGiB;
  config.tail_max = 2 * kGiB;
  config.mean_interarrival = Duration::seconds(2.0);
  config.seed = 5;
  return config;
}

double mean_job_duration(RunMode mode) {
  Testbed testbed(mini_config(mode));
  testbed.run_workload(build_swim_workload(testbed, mini_swim()));
  return testbed.metrics().mean_job_duration_seconds();
}

TEST(TestbedIntegration, AllModesCompleteTheWorkload) {
  for (const RunMode mode :
       {RunMode::kHdfs, RunMode::kHdfsInputsInRam, RunMode::kIgnem,
        RunMode::kInstantMigration}) {
    Testbed testbed(mini_config(mode));
    testbed.run_workload(build_swim_workload(testbed, mini_swim()));
    EXPECT_EQ(testbed.metrics().jobs().size(), 30u)
        << "mode: " << run_mode_name(mode);
  }
}

TEST(TestbedIntegration, IgnemBetweenHdfsAndRam) {
  // The paper's core ordering (Table I): RAM <= Ignem <= HDFS.
  const double hdfs = mean_job_duration(RunMode::kHdfs);
  const double ram = mean_job_duration(RunMode::kHdfsInputsInRam);
  const double ignem = mean_job_duration(RunMode::kIgnem);
  EXPECT_LT(ram, hdfs);
  EXPECT_LT(ignem, hdfs);
  EXPECT_GT(ignem, ram * 0.95);  // cannot beat the upper bound (tolerance)
}

TEST(TestbedIntegration, IgnemServesReadsFromMemory) {
  Testbed testbed(mini_config(RunMode::kIgnem));
  testbed.run_workload(build_swim_workload(testbed, mini_swim()));
  EXPECT_GT(testbed.metrics().memory_read_fraction(), 0.2);
}

TEST(TestbedIntegration, HdfsNeverReadsFromMemory) {
  Testbed testbed(mini_config(RunMode::kHdfs));
  testbed.run_workload(build_swim_workload(testbed, mini_swim()));
  EXPECT_EQ(testbed.metrics().memory_read_fraction(), 0.0);
}

TEST(TestbedIntegration, PreloadModeReadsEverythingFromMemory) {
  Testbed testbed(mini_config(RunMode::kHdfsInputsInRam));
  testbed.run_workload(build_swim_workload(testbed, mini_swim()));
  EXPECT_EQ(testbed.metrics().memory_read_fraction(), 1.0);
}

TEST(TestbedIntegration, IgnemMemoryIsReclaimed) {
  Testbed testbed(mini_config(RunMode::kIgnem));
  testbed.run_workload(build_swim_workload(testbed, mini_swim()));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(testbed.datanode(NodeId(static_cast<std::int64_t>(i)))
                  .cache()
                  .used(),
              0)
        << "node " << i << " leaked migration memory";
  }
}

TEST(TestbedIntegration, MemorySamplerRecordsDuringIgnemRun) {
  Testbed testbed(mini_config(RunMode::kIgnem));
  testbed.run_workload(build_swim_workload(testbed, mini_swim()));
  EXPECT_GT(testbed.metrics().memory_footprint().count(), 0u);
}

TEST(TestbedIntegration, InstantMigrationUsesMoreMemoryThanIgnem) {
  // Fig. 7's qualitative claim: the hypothetical scheme's footprint
  // dominates Ignem's because it holds whole inputs for whole job lifetimes.
  auto mean_nonzero_memory = [](RunMode mode) {
    Testbed testbed(mini_config(mode));
    testbed.run_workload(build_swim_workload(testbed, mini_swim()));
    return testbed.metrics().memory_footprint().mean_gib();
  };
  const double ignem = mean_nonzero_memory(RunMode::kIgnem);
  const double instant = mean_nonzero_memory(RunMode::kInstantMigration);
  EXPECT_GT(instant, ignem);
}

TEST(TestbedIntegration, DeterministicAcrossRuns) {
  const double a = mean_job_duration(RunMode::kIgnem);
  const double b = mean_job_duration(RunMode::kIgnem);
  EXPECT_EQ(a, b);
}

TEST(TestbedIntegration, SsdClusterFasterThanHddSlowerThanRam) {
  auto with_media = [](MediaType media) {
    TestbedConfig config = mini_config(RunMode::kHdfs);
    config.storage_media = media;
    Testbed testbed(config);
    testbed.run_workload(build_swim_workload(testbed, mini_swim()));
    return testbed.metrics().mean_block_read_seconds();
  };
  const double hdd = with_media(MediaType::kHdd);
  const double ssd = with_media(MediaType::kSsd);
  const double ram = mean_job_duration(RunMode::kHdfsInputsInRam);
  EXPECT_LT(ssd, hdd);
  (void)ram;
}

}  // namespace
}  // namespace ignem
