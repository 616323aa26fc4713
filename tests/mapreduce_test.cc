#include "mapreduce/job_runner.h"

#include <gtest/gtest.h>

#include <optional>
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

// A superseded map attempt whose read returns after its job completed: the
// job has freed its per-task state by then, so the continuation must drop
// out on the finished job before it looks up its attempt. The map's reader
// loses its disk and is cut off from every other replica mid-read; the RM
// declares it dead, the map re-runs elsewhere and the job completes while
// the old read still retries. Then the old read ends: `heal` lifts the cut
// and it is served, otherwise it waits out DfsClient::kReadDeadline and
// fails.
void superseded_read_returns_after_completion(bool heal) {
  TestbedConfig config = small_config();
  config.fault_tolerance = true;
  config.check_invariants = true;
  Testbed testbed(config);
  const JobSpec spec = map_only_spec(testbed, "/in", 64 * kMiB);
  std::optional<JobRecord> done;
  testbed.submit_job(spec, [&](const JobRecord& record) { done = record; });

  const auto& events = testbed.trace()->events();
  auto first_event = [&](TraceEventType type) -> const TraceEvent* {
    for (const TraceEvent& e : events) {
      if (e.type == type) return &e;
    }
    return nullptr;
  };
  // Bounded waits: periodic heartbeats keep the queue busy forever, so a
  // regression fails an assertion instead of hanging the binary.
  testbed.sim().run_until(
      [&] { return first_event(TraceEventType::kBlockReadStart) != nullptr; },
      SimTime::zero() + Duration::seconds(60));
  ASSERT_NE(first_event(TraceEventType::kBlockReadStart), nullptr);
  const TraceEvent* grant = first_event(TraceEventType::kContainerAllocate);
  ASSERT_NE(grant, nullptr);
  const NodeId reader = grant->node;
  const SimTime cut = testbed.sim().now();
  testbed.begin_disk_fail_stop(reader);
  testbed.begin_network_partition(reader, /*variant=*/0);

  testbed.sim().run_until([&] { return done.has_value(); },
                          cut + DfsClient::kReadDeadline);
  ASSERT_TRUE(done.has_value());
  const SimTime end = done->end;
  if (heal) {
    testbed.end_network_partition(reader, /*variant=*/0);
    testbed.end_disk_fail_stop(reader);
  }
  testbed.sim().run(cut + DfsClient::kReadDeadline + Duration::seconds(30));

  // The path was reached: exactly one read (the old attempt's) ended after
  // its job had, and it started no later than the cut.
  const RunMetrics& metrics = testbed.metrics();
  std::size_t late = 0;
  for (const BlockReadSample& read : metrics.block_reads()) {
    if (read.start + read.duration <= end) continue;
    ++late;
    EXPECT_LE(read.start, cut);
    EXPECT_EQ(read.failed, !heal);
  }
  EXPECT_EQ(late, 1u);

  // The job's record and its one task row are the surviving attempt's.
  ASSERT_EQ(metrics.jobs().size(), 1u);
  EXPECT_FALSE(metrics.jobs()[0].failed);
  EXPECT_FALSE(done->failed);
  EXPECT_EQ(metrics.jobs()[0].end, end);
  ASSERT_EQ(metrics.tasks().size(), 1u);
  const TaskRecord& task = metrics.tasks()[0];
  EXPECT_EQ(task.kind, TaskKind::kMap);
  EXPECT_GT(task.launch, cut);
  EXPECT_LE(task.launch + task.duration, end);
  std::size_t surviving_reads = 0;
  for (const BlockReadSample& read : metrics.block_reads()) {
    if (read.start >= task.launch && read.start + read.duration <= end) {
      ++surviving_reads;
      EXPECT_FALSE(read.failed);
      EXPECT_EQ(read.duration, task.read_time);
    }
  }
  EXPECT_EQ(surviving_reads, 1u);
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
}

TEST(JobRunner, SupersededReadServedAfterJobCompletes) {
  superseded_read_returns_after_completion(/*heal=*/true);
}

TEST(JobRunner, SupersededReadFailsAfterJobCompletes) {
  superseded_read_returns_after_completion(/*heal=*/false);
}

}  // namespace
}  // namespace ignem
