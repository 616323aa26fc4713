#include "metrics/csv_export.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ignem {
namespace {

RunMetrics sample_metrics() {
  RunMetrics metrics;
  BlockReadRecord read;
  read.block = BlockId(7);
  read.job = JobId(3);
  read.reader = NodeId(1);
  read.bytes = 64 * kMiB;
  read.start = SimTime(2'000'000);
  read.duration = Duration::millis(1500);
  read.from_memory = true;
  read.remote = false;
  metrics.add_block_read(read);

  TaskRecord task;
  task.task = TaskId(11);
  task.job = JobId(3);
  task.node = NodeId(2);
  task.kind = TaskKind::kReduce;
  task.input_bytes = 123;
  task.launch = SimTime(4'000'000);
  task.duration = Duration::seconds(2);
  task.read_time = Duration::zero();
  metrics.add_task(task);

  JobRecord job;
  job.job = JobId(3);
  job.name = "scan";
  job.input_bytes = 64 * kMiB;
  job.submit = SimTime::zero();
  job.first_task_start = SimTime(1'000'000);
  job.end = SimTime(9'000'000);
  job.duration = Duration::seconds(9);
  metrics.add_job(job);
  return metrics;
}

std::size_t line_count(const std::string& s) {
  std::size_t n = 0;
  for (const char c : s) {
    if (c == '\n') ++n;
  }
  return n;
}

TEST(CsvExport, BlockReads) {
  std::ostringstream os;
  write_block_reads_csv(sample_metrics(), os);
  const std::string out = os.str();
  EXPECT_EQ(line_count(out), 2u);  // header + one row
  EXPECT_NE(out.find("block,job,reader"), std::string::npos);
  EXPECT_NE(out.find("7,3,1,67108864,2,1.5,1,0"), std::string::npos);
}

TEST(CsvExport, Tasks) {
  std::ostringstream os;
  write_tasks_csv(sample_metrics(), os);
  const std::string out = os.str();
  EXPECT_EQ(line_count(out), 2u);
  EXPECT_NE(out.find("11,3,2,reduce,123,4,2,0"), std::string::npos);
}

TEST(CsvExport, Jobs) {
  std::ostringstream os;
  write_jobs_csv(sample_metrics(), os);
  const std::string out = os.str();
  EXPECT_EQ(line_count(out), 2u);
  EXPECT_NE(out.find("3,scan,67108864,0,1,9,9"), std::string::npos);
}

TEST(CsvExport, IntegritySummary) {
  IntegrityStats integrity;
  integrity.disk_corrupt_detected = 3;
  integrity.cache_corrupt_detected = 1;
  integrity.cache_copies_purged = 1;
  ScrubberStats scrubber;
  scrubber.blocks_scanned = 120;
  scrubber.corrupt_found = 2;
  std::ostringstream os;
  write_integrity_csv(integrity, scrubber, os);
  const std::string out = os.str();
  EXPECT_EQ(line_count(out), 2u);
  EXPECT_NE(out.find("disk_corrupt_detected,cache_corrupt_detected,"
                     "cache_copies_purged,blocks_scanned,scrub_corrupt_found"),
            std::string::npos);
  EXPECT_NE(out.find("3,1,1,120,2"), std::string::npos);
}

TEST(CsvExport, TierCost) {
  std::vector<TierSpec> tiers;
  tiers.push_back({"ram", DeviceProfile{}, 4 * kGiB, 10.0});
  tiers.push_back({"hdd", DeviceProfile{}, 100 * kGiB, 0.05});
  std::ostringstream os;
  write_tier_cost_csv(tiers, os);
  const std::string out = os.str();
  EXPECT_EQ(line_count(out), 4u);
  EXPECT_NE(out.find("tier,capacity_gib,cost_per_gib,cost"),
            std::string::npos);
  EXPECT_NE(out.find("ram,4,10,40"), std::string::npos);
  EXPECT_NE(out.find("hdd,100,0.05,5"), std::string::npos);
  EXPECT_NE(out.find("total,,,45"), std::string::npos);
  EXPECT_DOUBLE_EQ(tier_cost_total(tiers), 45.0);
}

TEST(CsvExport, TierCostEmptyHierarchy) {
  std::ostringstream os;
  write_tier_cost_csv({}, os);
  EXPECT_EQ(line_count(os.str()), 2u);  // header + zero total
  EXPECT_DOUBLE_EQ(tier_cost_total({}), 0.0);
}

TEST(CsvExport, DisabledScrubberExportsZeros) {
  IntegrityStats integrity;
  std::ostringstream os;
  write_integrity_csv(integrity, ScrubberStats{}, os);
  EXPECT_NE(os.str().find("0,0,0,0,0"), std::string::npos);
}

TEST(CsvExport, EmptyMetricsWriteHeadersOnly) {
  RunMetrics empty;
  std::ostringstream os;
  write_block_reads_csv(empty, os);
  write_tasks_csv(empty, os);
  write_jobs_csv(empty, os);
  EXPECT_EQ(line_count(os.str()), 3u);
}

TEST(CsvExport, EscapePassesPlainFieldsThrough) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("under_score-dash.dot"), "under_score-dash.dot");
}

TEST(CsvExport, EscapeQuotesSpecialFields) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(CsvExport, JobNameWithCommaIsQuoted) {
  RunMetrics metrics;
  JobRecord job;
  job.job = JobId(1);
  job.name = "scan, phase 2";
  metrics.add_job(job);
  std::ostringstream os;
  write_jobs_csv(metrics, os);
  EXPECT_NE(os.str().find("1,\"scan, phase 2\","), std::string::npos);
}

TEST(CsvExport, TierCostNameWithCommaIsQuoted) {
  std::vector<TierSpec> tiers;
  tiers.push_back({"ram, locked", DeviceProfile{}, 1 * kGiB, 10.0});
  std::ostringstream os;
  write_tier_cost_csv(tiers, os);
  EXPECT_NE(os.str().find("\"ram, locked\",1,10,10"), std::string::npos);
}

TEST(CsvExport, TimeseriesEmptyRegistryIsHeaderOnly) {
  MetricsRegistry registry;
  std::ostringstream os;
  write_timeseries_csv(registry, os);
  EXPECT_EQ(os.str(), "series,window_us,start_s,last,min,max,mean,count\n");
}

TEST(CsvExport, TimeseriesEmptySeriesWritesNoRows) {
  MetricsRegistry registry;
  registry.series("never.recorded", Duration::seconds(1.0));
  std::ostringstream os;
  write_timeseries_csv(registry, os);
  EXPECT_EQ(line_count(os.str()), 1u);
}

TEST(CsvExport, TimeseriesRowsPerWindow) {
  MetricsRegistry registry;
  TimeSeries& s = registry.series("tier.occupancy.t0", Duration::seconds(1.0));
  s.record(SimTime(500'000), 0.25);
  s.record(SimTime(900'000), 0.75);
  s.record(SimTime(2'100'000), 1.0);  // skips a window; no gap row emitted
  std::ostringstream os;
  write_timeseries_csv(registry, os);
  const std::string out = os.str();
  EXPECT_EQ(line_count(out), 3u);
  EXPECT_NE(out.find("tier.occupancy.t0,1000000,0,0.75,0.25,0.75,0.5,2"),
            std::string::npos);
  EXPECT_NE(out.find("tier.occupancy.t0,1000000,2,1,1,1,1,1"),
            std::string::npos);
}

}  // namespace
}  // namespace ignem
