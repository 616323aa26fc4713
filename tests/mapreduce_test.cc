#include "mapreduce/job_runner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"
#include "core/testbed.h"

namespace ignem {
namespace {

TestbedConfig small_config(RunMode mode = RunMode::kHdfs) {
  TestbedConfig config;
  config.mode = mode;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 4;
  config.cache_capacity_per_node = 32 * kGiB;
  return config;
}

JobSpec map_only_spec(Testbed& testbed, const std::string& path, Bytes size) {
  JobSpec spec;
  spec.name = "scan";
  spec.inputs = {testbed.create_file(path, size)};
  spec.compute.reduce_tasks = 0;
  spec.compute.map_output_ratio = 0.0;
  spec.compute.output_ratio = 0.0;
  return spec;
}

TEST(JobRunner, MapOnlyJobCompletes) {
  Testbed testbed(small_config());
  testbed.run_workload({{Duration::zero(),
                         map_only_spec(testbed, "/in", 128 * kMiB)}});
  ASSERT_EQ(testbed.metrics().jobs().size(), 1u);
  const JobRecord& job = testbed.metrics().jobs()[0];
  EXPECT_GT(job.duration.to_seconds(), 0.0);
  EXPECT_EQ(job.input_bytes, 128 * kMiB);
  // One map task per block.
  EXPECT_EQ(testbed.metrics().tasks().size(), 2u);
}

TEST(JobRunner, TaskPerBlockAndRecordsReadTime) {
  Testbed testbed(small_config());
  testbed.run_workload({{Duration::zero(),
                         map_only_spec(testbed, "/in", 320 * kMiB)}});
  const auto& tasks = testbed.metrics().tasks();
  ASSERT_EQ(tasks.size(), 5u);
  for (const auto& task : tasks) {
    EXPECT_EQ(task.kind, TaskKind::kMap);
    EXPECT_GT(task.read_time.to_seconds(), 0.0);
    EXPECT_GE(task.duration.to_seconds(), task.read_time.to_seconds());
  }
}

TEST(JobRunner, ReduceStageRunsAfterMaps) {
  Testbed testbed(small_config());
  JobSpec spec;
  spec.name = "mr";
  spec.inputs = {testbed.create_file("/in", 128 * kMiB)};
  spec.compute.map_output_ratio = 0.5;
  spec.compute.output_ratio = 0.1;
  spec.compute.reduce_tasks = 2;
  testbed.run_workload({{Duration::zero(), spec}});
  const auto& tasks = testbed.metrics().tasks();
  std::size_t maps = 0, reduces = 0;
  SimTime last_map_end = SimTime::zero();
  SimTime first_reduce_start = SimTime::max();
  for (const auto& task : tasks) {
    if (task.kind == TaskKind::kMap) {
      ++maps;
      const SimTime end = task.launch + task.duration;
      if (end > last_map_end) last_map_end = end;
    } else {
      ++reduces;
      if (task.launch < first_reduce_start) first_reduce_start = task.launch;
    }
  }
  EXPECT_EQ(maps, 2u);
  EXPECT_EQ(reduces, 2u);
  EXPECT_GE(first_reduce_start, last_map_end);  // stage barrier
}

TEST(JobRunner, JobDurationIncludesQueueing) {
  Testbed testbed(small_config());
  testbed.run_workload({{Duration::zero(),
                         map_only_spec(testbed, "/in", 64 * kMiB)}});
  const JobRecord& job = testbed.metrics().jobs()[0];
  // Submission overhead (0.5 s) + heartbeat wait + container launch mean the
  // job takes well over the raw read time.
  EXPECT_GT(job.duration.to_seconds(), 1.0);
  EXPECT_GE(job.first_task_start, job.submit);
  EXPECT_EQ(job.end - job.submit, job.duration);
}

TEST(JobRunner, ExtraLeadTimeDelaysSubmissionAndCounts) {
  Testbed testbed(small_config());
  JobSpec spec = map_only_spec(testbed, "/in", 64 * kMiB);
  const double base =
      [&] {
        Testbed t2(small_config());
        t2.run_workload({{Duration::zero(),
                          map_only_spec(t2, "/in", 64 * kMiB)}});
        return t2.metrics().jobs()[0].duration.to_seconds();
      }();
  spec.extra_lead_time = Duration::seconds(10);
  testbed.run_workload({{Duration::zero(), spec}});
  const double with_sleep = testbed.metrics().jobs()[0].duration.to_seconds();
  EXPECT_NEAR(with_sleep, base + 10.0, 2.0);
}

TEST(JobRunner, ConcurrentJobsAllFinish) {
  Testbed testbed(small_config());
  std::vector<ScheduledJob> jobs;
  for (int i = 0; i < 10; ++i) {
    jobs.push_back({Duration::seconds(i * 0.5),
                    map_only_spec(testbed, "/in" + std::to_string(i),
                                  64 * kMiB)});
  }
  testbed.run_workload(std::move(jobs));
  EXPECT_EQ(testbed.metrics().jobs().size(), 10u);
}

TEST(JobRunner, SubmitJobChainsViaCallback) {
  Testbed testbed(small_config());
  JobSpec first = map_only_spec(testbed, "/a", 64 * kMiB);
  JobSpec second = map_only_spec(testbed, "/b", 64 * kMiB);
  bool second_done = false;
  testbed.submit_job(first, [&](const JobRecord&) {
    testbed.submit_job(second,
                       [&](const JobRecord&) { second_done = true; });
  });
  testbed.run_until_jobs_done();
  EXPECT_TRUE(second_done);
  EXPECT_EQ(testbed.metrics().jobs().size(), 2u);
}

TEST(JobRunner, RejectsEmptyInputs) {
  Testbed testbed(small_config());
  JobSpec spec;
  spec.name = "empty";
  EXPECT_THROW(testbed.submit_job(spec, nullptr), CheckFailure);
}

TEST(JobRunner, IgnemModeSetsUseIgnem) {
  Testbed testbed(small_config(RunMode::kIgnem));
  JobSpec spec = map_only_spec(testbed, "/in", 64 * kMiB);
  JobRunner* runner = testbed.submit_job(spec, nullptr);
  EXPECT_TRUE(runner->spec().use_ignem);
  testbed.run_until_jobs_done();
}

TEST(JobRunner, HdfsModeClearsUseIgnem) {
  Testbed testbed(small_config(RunMode::kHdfs));
  JobSpec spec = map_only_spec(testbed, "/in", 64 * kMiB);
  spec.use_ignem = true;  // the testbed must override this
  JobRunner* runner = testbed.submit_job(spec, nullptr);
  EXPECT_FALSE(runner->spec().use_ignem);
  testbed.run_until_jobs_done();
}

}  // namespace
}  // namespace ignem
