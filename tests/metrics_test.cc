// The metrics plane's contract tests.
//
// Four layers of guarantees are pinned here:
//   1. Instrument semantics — log2 histogram geometry and exact merges,
//      windowed time-series rollover, registry identity and window checks.
//   2. Determinism — two identical seeded runs emit byte-identical
//      RunReport JSON (each run in a fresh thread so thread_local kernel
//      alloc counters start cold, exactly like two separate processes),
//      a report read on another thread than the run's matches, and
//      building a report twice gives the same bytes.
//   3. Coverage — every field of every component *Stats struct reaches the
//      report, summed over the components that own one.
//   4. The memory footprint — the per-run aggregate Fig. 7 reads — matches
//      the per-sample rows it replaced, bit for bit.
// Inertness — recording never perturbs the simulation — is pinned by the
// trace hashes in kernel_regression_test: they predate the metrics plane
// and every Testbed now records metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/experiment_common.h"
#include "common/check.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/testbed.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "metrics/instruments.h"
#include "metrics/registry.h"
#include "metrics/report.h"
#include "metrics/run_metrics.h"
#include "test_util.h"
#include "workload/standalone.h"
#include "workload/swim.h"

namespace ignem {
namespace {

// ---------------------------------------------------------------------------
// Instruments

TEST(HistogramMetricTest, BucketEdgesArePowersOfTwo) {
  EXPECT_EQ(HistogramMetric::bucket_lo(0), 0);
  EXPECT_EQ(HistogramMetric::bucket_hi(0), 1);
  EXPECT_EQ(HistogramMetric::bucket_lo(1), 1);
  EXPECT_EQ(HistogramMetric::bucket_hi(1), 2);
  EXPECT_EQ(HistogramMetric::bucket_lo(10), 512);
  EXPECT_EQ(HistogramMetric::bucket_hi(10), 1024);
  EXPECT_EQ(HistogramMetric::bucket_hi(63), INT64_MAX);
}

TEST(HistogramMetricTest, SamplesLandInBitWidthBuckets) {
  HistogramMetric h;
  h.record(0);     // bucket 0 = {0}
  h.record(1);     // bucket 1 = [1, 2)
  h.record(3);     // bucket 2 = [2, 4)
  h.record(1000);  // bucket 10 = [512, 1024)
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1004);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 251.0);
}

TEST(HistogramMetricTest, NegativeSamplesClampToZero) {
  HistogramMetric h;
  h.record(-42);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
}

TEST(HistogramMetricTest, EmptyStatsAreZero) {
  const HistogramMetric h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramMetricTest, MergeIsExact) {
  HistogramMetric a;
  a.record(1);
  a.record(100);
  HistogramMetric b;
  b.record(7);
  b.record(5000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 5108);
  EXPECT_EQ(a.min(), 1);
  EXPECT_EQ(a.max(), 5000);
  EXPECT_EQ(a.bucket_count(3), 1u);   // 7 lives in [4, 8)
  EXPECT_EQ(a.bucket_count(13), 1u);  // 5000 lives in [4096, 8192)
}

TEST(HistogramMetricTest, MergeOfEmptyPreservesMinMax) {
  HistogramMetric a;
  a.record(5);
  a.merge(HistogramMetric{});
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 5);
  HistogramMetric empty;
  empty.merge(a);
  EXPECT_EQ(empty.min(), 5);
  EXPECT_EQ(empty.max(), 5);
}

TEST(TimeSeriesTest, AggregatesWithinOneWindow) {
  TimeSeries s(Duration::seconds(1.0));
  s.record(SimTime(100'000), 2.0);
  s.record(SimTime(800'000), 6.0);
  ASSERT_EQ(s.windows().size(), 1u);
  const TimeSeries::Window& w = s.windows()[0];
  EXPECT_EQ(w.start_micros, 0);
  EXPECT_DOUBLE_EQ(w.last, 6.0);
  EXPECT_DOUBLE_EQ(w.min, 2.0);
  EXPECT_DOUBLE_EQ(w.max, 6.0);
  EXPECT_DOUBLE_EQ(w.mean(), 4.0);
  EXPECT_EQ(w.count, 2u);
}

TEST(TimeSeriesTest, RollsOverOnAlignedBoundariesAndSkipsGaps) {
  TimeSeries s(Duration::seconds(1.0));
  s.record(SimTime(900'000), 1.0);
  s.record(SimTime(1'000'000), 2.0);  // exactly on the boundary: new window
  s.record(SimTime(5'500'000), 3.0);  // windows 2..4 had no samples: absent
  ASSERT_EQ(s.windows().size(), 3u);
  EXPECT_EQ(s.windows()[0].start_micros, 0);
  EXPECT_EQ(s.windows()[1].start_micros, 1'000'000);
  EXPECT_EQ(s.windows()[2].start_micros, 5'000'000);
}

TEST(TimeSeriesTest, OutOfOrderRecordTripsCheck) {
  TimeSeries s(Duration::seconds(1.0));
  s.record(SimTime(2'500'000), 1.0);
  s.record(SimTime(2'900'000), 2.0);  // same window: fine
  EXPECT_THROW(s.record(SimTime(1'000'000), 3.0), CheckFailure);
}

TEST(TimeSeriesTest, RejectsNonPositiveWindow) {
  EXPECT_THROW(TimeSeries(Duration::zero()), CheckFailure);
}

TEST(RegistryTest, InstrumentsAreCreatedOnceWithStableIdentity) {
  MetricsRegistry registry;
  HistogramMetric& h = registry.histogram("a.latency");
  h.record(3);
  EXPECT_EQ(&registry.histogram("a.latency"), &h);
  EXPECT_EQ(registry.histogram("a.latency").count(), 1u);
  TimeSeries& s = registry.series("a.series", Duration::seconds(1.0));
  EXPECT_EQ(&registry.series("a.series", Duration::seconds(1.0)), &s);
  EXPECT_EQ(registry.histograms().size(), 1u);
  EXPECT_EQ(registry.series().size(), 1u);
}

TEST(RegistryTest, SeriesWindowMismatchTripsCheck) {
  MetricsRegistry registry;
  registry.series("x", Duration::seconds(1.0));
  EXPECT_THROW(registry.series("x", Duration::seconds(2.0)), CheckFailure);
}

// ---------------------------------------------------------------------------
// Report formatting

TEST(ReportFormat, JsonDoubleRoundTripsExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 12.7, 1e-300, 123456.789}) {
    const std::string text = format_json_double(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(ReportFormat, JsonDoubleMarksIntegersAndNonFinite) {
  EXPECT_EQ(format_json_double(3.0), "3.0");
  EXPECT_EQ(format_json_double(0.0), "0.0");
  EXPECT_EQ(format_json_double(-2.0), "-2.0");
  const std::string inf = format_json_double(HUGE_VAL);
  EXPECT_EQ(inf.front(), '"');  // quoted: bare inf is not valid JSON
}

TEST(ReportFormat, JsonQuoteEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
}

TEST(Fingerprint, HashFollowsCanonicalText) {
  ConfigFingerprint a;
  a.seed = 42;
  a.nodes = 8;
  ConfigFingerprint b = a;
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.hash(), b.hash());
  b.seed = 43;
  EXPECT_NE(a.canonical(), b.canonical());
  EXPECT_NE(a.hash(), b.hash());
  // The canonical form names every identity-bearing knob.
  EXPECT_NE(a.canonical().find("seed=42"), std::string::npos);
  EXPECT_NE(a.canonical().find("nodes=8"), std::string::npos);
  EXPECT_NE(a.canonical().find("scrubber=false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Testbed integration: inertness, determinism, coverage

TestbedConfig small_config(RunMode mode) {
  TestbedConfig config;
  config.mode = mode;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 64 * kGiB;
  config.seed = 42;
  return config;
}

SwimConfig small_swim() {
  SwimConfig config;
  config.job_count = 12;
  config.total_input = 3 * kGiB;
  config.tail_max = 1 * kGiB;
  config.mean_interarrival = Duration::seconds(1.5);
  config.seed = 42;
  return config;
}

struct ReportRun {
  std::string json;
  std::uint64_t trace_hash = 0;  ///< 0 unless the config enables tracing.
};

// Runs a full seeded testbed in a fresh thread and returns its RunReport
// JSON and trace hash. The fresh thread matters: kernel alloc counters are
// thread_local, and a previous run on this thread would leave warmed slab
// pools behind — a fresh thread reproduces the "separate process" baseline
// the byte-identical guarantee is stated for.
ReportRun run_in_fresh_thread(
    const TestbedConfig& config = small_config(RunMode::kIgnem)) {
  ReportRun out;
  std::thread t([&out, &config] {
    Testbed testbed(config);
    testbed.run_workload(build_swim_workload(testbed, small_swim()));
    std::ostringstream os;
    testbed.build_run_report("determinism").write_json(os);
    out.json = os.str();
    out.trace_hash = testbed.trace_hash();
  });
  t.join();
  return out;
}

TEST(RunReportTest, ByteIdenticalAcrossIdenticalSeededRuns) {
  const std::string first = run_in_fresh_thread().json;
  const std::string second = run_in_fresh_thread().json;
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// Sweep benches run each Testbed on a worker thread and write its report
// from the main thread. The allocator deltas must still describe the run,
// not the reading thread's counters minus the worker's baseline.
TEST(RunReportTest, ReportReadOnAnotherThreadMatchesTheRunsThread) {
  std::promise<Testbed*> ran;
  std::promise<void> reported;
  // The worker keeps the Testbed alive (and destroys it) itself: its
  // pending callbacks live in the worker's thread-local slab pool.
  std::thread worker([&] {
    Testbed testbed(small_config(RunMode::kIgnem));
    testbed.run_workload(build_swim_workload(testbed, small_swim()));
    ran.set_value(&testbed);
    reported.get_future().wait();
  });
  std::ostringstream os;
  ran.get_future().get()->build_run_report("determinism").write_json(os);
  reported.set_value();
  worker.join();
  EXPECT_EQ(os.str(), run_in_fresh_thread().json);
}

TEST(RunReportTest, ContainsKernelProfileSeriesAndFingerprint) {
  Testbed testbed(small_config(RunMode::kIgnem));
  testbed.run_workload(build_swim_workload(testbed, small_swim()));
  std::ostringstream os;
  testbed.build_run_report("coverage").write_json(os);
  const std::string json = os.str();
  for (const char* needle :
       // run_mode_name spells the paper's capitalized labels.
       {"\"fingerprint\"", "\"hash\": \"0x", "\"mode\": \"Ignem\"",
        "\"kernel\"", "\"events_dispatched\"", "\"class.periodic\"",
        "\"alloc.pool_hits\"", "\"dfs.read_latency_us\"",
        "\"ignem.cache_hit_ratio\"", "\"ignem.locked_bytes\"",
        "\"tier.occupancy.t0\"", "\"summary\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  }
}

// The reporters add into the report's maps, so a second report of the same
// finished run must not double anything.
TEST(RunReportTest, BuildingTwiceGivesTheSameReport) {
  TestbedConfig config = small_config(RunMode::kIgnem);
  config.integrity.enable_scrubber = true;  // its gauges too
  config.integrity.scrub_interval = Duration::seconds(2.0);
  Testbed testbed(config);
  testbed.run_workload(build_swim_workload(testbed, small_swim()));
  std::ostringstream first;
  testbed.build_run_report("twice").write_json(first);
  std::ostringstream second;
  testbed.build_run_report("twice").write_json(second);
  EXPECT_NE(first.str().find("\"ignem.migrations_completed\""),
            std::string::npos);
  EXPECT_NE(first.str().find("\"scrub.coverage\""), std::string::npos);
  EXPECT_EQ(first.str(), second.str());
}

// The value of counter `name` in a RunReport's JSON text; nullopt when the
// report does not name it.
std::optional<std::uint64_t> report_counter(const std::string& json,
                                            const std::string& name) {
  const std::size_t section = json.find("\"counters\": {");
  if (section == std::string::npos) return std::nullopt;
  const std::size_t end = json.find('}', section);
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = json.find(key, section);
  if (at == std::string::npos || at > end) return std::nullopt;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

// The model: every field of every *Stats struct the run's components own,
// under its report name, summed over the components that own one (one
// IgnemSlave, HotDataPromoter, DataNode and pool per node).
std::map<std::string, std::uint64_t> stats_fields(Testbed& testbed) {
  std::map<std::string, std::uint64_t> f;
  const DfsStats& dfs = testbed.dfs().stats();
  f["dfs.reads_completed"] += dfs.reads_completed;
  f["dfs.reads_failed"] += dfs.reads_failed;
  f["dfs.memory_reads"] += dfs.memory_reads;
  f["dfs.remote_reads"] += dfs.remote_reads;
  f["dfs.retries"] += dfs.retries;
  f["dfs.replica_failovers"] += dfs.replica_failovers;
  f["dfs.checksum_failovers"] += dfs.checksum_failovers;

  const ReplicationStats& repl = testbed.replication_manager().stats();
  f["replication.blocks_scheduled"] += repl.blocks_scheduled;
  f["replication.blocks_repaired"] += repl.blocks_repaired;
  f["replication.blocks_unrepairable"] += repl.blocks_unrepairable;
  f["replication.corrupt_invalidated"] += repl.corrupt_invalidated;
  f["replication.repairs_throttled"] += repl.repairs_throttled;
  f["replication.excess_deleted"] += repl.excess_deleted;
  f["replication.repairs_discarded"] += repl.repairs_discarded;
  f["replication.bytes_repaired"] +=
      static_cast<std::uint64_t>(repl.bytes_repaired);

  const IntegrityStats& integrity = testbed.integrity_manager().stats();
  f["integrity.disk_corrupt_detected"] += integrity.disk_corrupt_detected;
  f["integrity.cache_corrupt_detected"] += integrity.cache_corrupt_detected;
  f["integrity.cache_copies_purged"] += integrity.cache_copies_purged;

  if (const RpcRouter* router = testbed.rpc_router(); router != nullptr) {
    const RpcStats& rpc = router->stats();
    f["rpc.calls_total"] += rpc.calls;
    f["rpc.delivered_total"] += rpc.delivered;
    f["rpc.retries_total"] += rpc.retries;
    f["rpc.timeout_total"] += rpc.timeouts;
    f["rpc.unreachable_total"] += rpc.unreachable;
    f["rpc.oneways_total"] += rpc.oneways;
    f["rpc.oneways_dropped_total"] += rpc.oneways_dropped;
  }

  if (const Scrubber* scrubber = testbed.scrubber(); scrubber != nullptr) {
    const ScrubberStats& scrub = scrubber->stats();
    f["scrub.blocks_scanned"] += scrub.blocks_scanned;
    f["scrub.corrupt_found"] += scrub.corrupt_found;
    f["scrub.scans_contended"] += scrub.scans_contended;
  }

  if (const IgnemMaster* master = testbed.ignem_master(); master != nullptr) {
    const MasterStats& m = master->stats();
    f["ignem.master.requests"] += m.requests;
    f["ignem.master.migrate_commands"] += m.migrate_commands;
    f["ignem.master.evict_commands"] += m.evict_commands;
    f["ignem.master.batches_sent"] += m.batches_sent;
    f["ignem.master.rejoin_reclaimed"] += m.rejoin_reclaimed;
    f["ignem.master.rejoin_purged"] += m.rejoin_purged;
    f["ignem.master.rpc_batches_lost"] += m.rpc_batches_lost;
    f["ignem.master.rpc_evict_retries"] += m.rpc_evict_retries;
  }

  for (std::size_t n = 0; n < testbed.node_count(); ++n) {
    const NodeId node(static_cast<std::int64_t>(n));
    if (const IgnemSlave* slave = testbed.ignem_slave(node);
        slave != nullptr) {
      const SlaveStats& s = slave->stats();
      f["ignem.migrations_completed"] += s.migrations_completed;
      f["ignem.bytes_migrated"] += static_cast<std::uint64_t>(s.bytes_migrated);
      f["ignem.commands_received"] += s.commands_received;
      f["ignem.commands_discarded_missed_read"] +=
          s.commands_discarded_missed_read;
      f["ignem.evictions"] += s.evictions;
      f["ignem.cleanup_rounds"] += s.cleanup_rounds;
      f["ignem.references_reaped"] += s.references_reaped;
    }
    if (const HotDataPromoter* promoter = testbed.hot_data_promoter(node);
        promoter != nullptr) {
      const HotDataStats& h = promoter->stats();
      f["hotdata.promotions"] += h.promotions;
      f["hotdata.evictions"] += h.evictions;
      f["hotdata.bytes_promoted"] +=
          static_cast<std::uint64_t>(h.bytes_promoted);
    }
    const DataNode& datanode = testbed.datanode(node);
    const PoolStats& pool = datanode.cache().stats();
    f["tier.promotes"] += pool.promotes;
    f["tier.demotes"] += pool.demotes;
    f["tier.reads.t0"] += datanode.stats().pool_reads;
    f["tier.reads.t1"] += datanode.stats().home_reads;
  }
  return f;
}

void expect_report_names_every_stats_field(Testbed& testbed) {
  std::ostringstream os;
  testbed.build_run_report("stats").write_json(os);
  const std::string json = os.str();
  for (const auto& [name, value] : stats_fields(testbed)) {
    const std::optional<std::uint64_t> reported = report_counter(json, name);
    ASSERT_TRUE(reported.has_value()) << "report does not name " << name;
    EXPECT_EQ(*reported, value) << name;
  }
}

// Together the two runs own all ten *Stats structs: a routed,
// fault-tolerant Ignem run with the scrubber and a node crash and rejoin,
// and a Hot-Data-Promotion run on the iterative workload it promotes in.
TEST(RunReportTest, ReportsEveryStatsField) {
  {
    TestbedConfig config = small_config(RunMode::kIgnem);
    config.routed_control_plane = true;
    config.fault_tolerance = true;
    config.integrity.enable_scrubber = true;
    config.integrity.scrub_interval = Duration::seconds(2.0);
    Testbed testbed(config);
    FaultPlan plan;
    plan.faults.push_back(FaultSpec{FaultKind::kNodeCrash,
                                    Duration::seconds(5.0),
                                    Duration::seconds(30.0), NodeId(1)});
    FaultInjector injector(testbed.sim(), testbed, plan);
    injector.arm();
    testbed.run_workload(build_swim_workload(testbed, small_swim()));
    // Past the restart, so the node rejoins before the report is built.
    testbed.sim().run(std::max(testbed.sim().now(),
                               SimTime::zero() + Duration::seconds(60.0)));
    ASSERT_GT(testbed.rpc_router()->stats().calls, 0u);
    ASSERT_GT(testbed.scrubber()->stats().blocks_scanned, 0u);
    ASSERT_GT(testbed.ignem_master()->stats().requests, 0u);
    ASSERT_GT(testbed.replication_manager().stats().blocks_repaired, 0u);
    ASSERT_TRUE(testbed.datanode(NodeId(1)).alive());
    expect_report_names_every_stats_field(testbed);
  }
  {
    Testbed testbed(small_config(RunMode::kHotDataPromotion));
    const JobSpec pass = make_grep_job(testbed, "/iter", 2 * kGiB);
    std::vector<ScheduledJob> jobs;
    for (int i = 0; i < 5; ++i) {
      jobs.push_back(ScheduledJob{Duration::seconds(i * 60.0), pass});
    }
    testbed.run_workload(std::move(jobs));
    ASSERT_GT(stats_fields(testbed).at("hotdata.promotions"), 0u);
    expect_report_names_every_stats_field(testbed);
  }
}

// The fingerprint describes the stack the run built: its home tier's
// device names the medium, whether storage_media or primary_profile set it.
TEST(Fingerprint, StorageMediaNamesTheBuiltHomeTier) {
  const TestbedConfig hdd = small_config(RunMode::kIgnem);
  TestbedConfig ssd = hdd;
  ssd.primary_profile = ssd_profile();
  const ConfigFingerprint a = Testbed(hdd).fingerprint();
  const ConfigFingerprint b = Testbed(ssd).fingerprint();
  EXPECT_EQ(a.storage_media, "HDD");
  EXPECT_EQ(b.storage_media, "SSD");
  EXPECT_NE(a.canonical(), b.canonical());
  EXPECT_NE(a.hash(), b.hash());

  TestbedConfig by_media = hdd;
  by_media.storage_media = MediaType::kSsd;
  EXPECT_EQ(Testbed(by_media).fingerprint().storage_media, "SSD");
}

// Routed and direct control planes, and different rack counts, give
// different event streams, so they must not share a fingerprint.
TEST(Fingerprint, NamesControlPlaneAndRackCount) {
  const TestbedConfig direct = small_config(RunMode::kIgnem);
  TestbedConfig routed = direct;
  routed.routed_control_plane = true;
  TestbedConfig two_racks = direct;
  two_racks.rack_count = 2;
  const ConfigFingerprint a = Testbed(direct).fingerprint();
  const ConfigFingerprint b = Testbed(routed).fingerprint();
  const ConfigFingerprint c = Testbed(two_racks).fingerprint();
  EXPECT_NE(a.canonical().find("control_plane=direct"), std::string::npos);
  EXPECT_NE(b.canonical().find("control_plane=routed"), std::string::npos);
  EXPECT_NE(a.canonical().find("racks=1"), std::string::npos);
  EXPECT_NE(c.canonical().find("racks=2"), std::string::npos);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  std::ostringstream json;
  b.write_json(json, 0);
  EXPECT_NE(json.str().find("\"control_plane\": \"routed\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"racks\": 1"), std::string::npos);
}

// Sweep workers add runs in completion order; the report stamps the
// fingerprint of the sweep's lowest index whichever run comes first.
TEST(BenchReportTest, StampsTheLowestSweepIndexFingerprint) {
  ConfigFingerprint hdd;
  hdd.storage_media = "HDD";
  ConfigFingerprint ssd;
  ssd.storage_media = "SSD";
  const auto stamped_media = [](auto&& add) {
    const std::string name = "fingerprint_order_test";
    {
      bench::BenchReport report(name);
      add(report);
    }
    const std::string file = "BENCH_" + name + ".json";
    std::stringstream text;
    text << std::ifstream(file).rdbuf();
    std::remove(file.c_str());
    const bool hdd_named =
        text.str().find("\"storage_media\": \"HDD\"") != std::string::npos;
    const bool ssd_named =
        text.str().find("\"storage_media\": \"SSD\"") != std::string::npos;
    return hdd_named && !ssd_named ? "HDD" : ssd_named ? "SSD" : "none";
  };

  EXPECT_STREQ(stamped_media([&](bench::BenchReport& report) {
                 report.set_fingerprint(ssd, 1);
                 report.set_fingerprint(hdd, 0);
                 report.set_fingerprint(ssd, 2);
               }),
               "HDD");
  // Index 0 finishes last on a three-worker sweep.
  EXPECT_STREQ(stamped_media([&](bench::BenchReport& report) {
                 std::atomic<int> finished{0};
                 bench::run_indexed_sweep(
                     3,
                     [&](std::size_t i) {
                       while (i == 0 && finished.load() < 2) {
                         std::this_thread::yield();
                       }
                       report.set_fingerprint(i == 0 ? hdd : ssd);
                       return ++finished;
                     },
                     3);
               }),
               "HDD");
}

TEST(KernelProfileTest, ClassCountsSumToDispatched) {
  Testbed testbed(small_config(RunMode::kIgnem));
  testbed.run_workload(build_swim_workload(testbed, small_swim()));
  const KernelProfile& profile = testbed.sim().profile();
  // Profiling was enabled before the first event, so the profile saw the
  // whole run.
  EXPECT_EQ(profile.events_dispatched, testbed.sim().events_dispatched());
  std::uint64_t by_class = 0;
  for (const std::uint64_t n : profile.class_counts) by_class += n;
  EXPECT_EQ(by_class, profile.events_dispatched);
  // An Ignem run has periodic samplers, transfers, and RPCs by construction.
  using C = EventClass;
  EXPECT_GT(profile.class_counts[static_cast<std::size_t>(C::kPeriodic)], 0u);
  EXPECT_GT(profile.class_counts[static_cast<std::size_t>(C::kTransfer)], 0u);
  EXPECT_GT(profile.class_counts[static_cast<std::size_t>(C::kRpc)], 0u);
  EXPECT_GT(profile.max_pending, 0u);
  EXPECT_GT(profile.mean_pending(), 0.0);
}

TEST(DfsMetricsTest, ReadLatencyHistogramMatchesClientStats) {
  Testbed testbed(small_config(RunMode::kHdfs));
  testbed.run_workload(build_swim_workload(testbed, small_swim()));
  const DfsStats& stats = testbed.dfs().stats();
  EXPECT_GT(stats.reads_completed, 0u);
  const auto& histograms = testbed.metrics_registry().histograms();
  const auto it = histograms.find("dfs.read_latency_us");
  ASSERT_NE(it, histograms.end());
  EXPECT_EQ(it->second.count(), stats.reads_completed);
  EXPECT_GT(it->second.sum(), 0);
}

TEST(ScrubMetricsTest, ProgressAndContentionSurfaceInReport) {
  TestbedConfig config = small_config(RunMode::kHdfs);
  config.integrity.enable_scrubber = true;
  config.integrity.scrub_interval = Duration::seconds(2.0);
  Testbed testbed(config);
  testbed.run_workload(build_swim_workload(testbed, small_swim()));
  ASSERT_NE(testbed.scrubber(), nullptr);
  const ScrubberStats& stats = testbed.scrubber()->stats();
  EXPECT_GT(stats.blocks_scanned, 0u);
  EXPECT_LE(stats.scans_contended, stats.blocks_scanned);
  std::ostringstream os;
  testbed.build_run_report("scrub").write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"scrub.blocks_scanned\""), std::string::npos);
  EXPECT_NE(json.find("\"scrub.contention_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"scrub.coverage\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// The memory footprint against the per-sample rows it replaced

// The model: the rows the sampler used to keep (one locked-bytes value per
// node per tick), reduced exactly as Fig. 7 and the replicas ablation
// reduced them.
struct RowModel {
  Samples nonzero_gib;  // Fig. 7's mean
  Histogram histogram{0.0, 8.0, 16};  // Fig. 7's plot
  double ablation_mean_gib = 0.0;  // the ablation's mean in bytes, in GiB
};

RowModel reduce_rows(const std::vector<Bytes>& rows) {
  RowModel model;
  for (const Bytes locked : rows) {
    if (locked > 0) {
      model.nonzero_gib.add(static_cast<double>(locked) /
                            static_cast<double>(kGiB));
    }
  }
  for (const double v : model.nonzero_gib.values()) model.histogram.add(v);
  double sum = 0;
  std::size_t n = 0;
  for (const Bytes locked : rows) {
    if (locked > 0) {
      sum += static_cast<double>(locked);
      ++n;
    }
  }
  model.ablation_mean_gib =
      n ? sum / static_cast<double>(n) / static_cast<double>(kGiB) : 0.0;
  return model;
}

TEST(MemoryFootprintTest, MatchesPerSampleRowModel) {
  Rng rng(test::seed_for(16));
  std::size_t empty_runs = 0, zeros = 0, above_range = 0;
  for (int run = 0; run < 300; ++run) {
    // Run 0 takes no sample at all; the rest sample every node per tick.
    const auto nodes =
        run == 0 ? 0 : static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto ticks = static_cast<std::size_t>(rng.uniform_int(0, 80));
    // Each node's locked bytes walk by whole blocks or odd byte counts,
    // between empty and 12 GiB (past the histogram's 8 GiB top).
    std::vector<Bytes> locked(nodes, 0);
    std::vector<Bytes> rows;
    RunMetrics metrics;
    for (std::size_t tick = 0; tick < ticks; ++tick) {
      for (Bytes& node : locked) {
        const double u = rng.next_double();
        if (u < 0.15) {
          node = 0;
        } else if (u < 0.25) {
          node = rng.uniform_int(1, 12 * kGiB);
        } else {
          node += rng.uniform_int(-8, 8) * 64 * kMiB;
          node = std::clamp<Bytes>(node, 0, 12 * kGiB);
        }
        rows.push_back(node);
        metrics.add_memory_sample(node);
        zeros += node == 0 ? 1 : 0;
        above_range += node >= 8 * kGiB ? 1 : 0;
      }
    }
    empty_runs += rows.empty() ? 1 : 0;

    const RowModel model = reduce_rows(rows);
    const MemoryFootprint& footprint = metrics.memory_footprint();
    ASSERT_EQ(footprint.count(), model.nonzero_gib.count()) << "run " << run;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(footprint.sum_gib()),
              std::bit_cast<std::uint64_t>(model.nonzero_gib.sum()))
        << "run " << run;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(footprint.mean_gib()),
              std::bit_cast<std::uint64_t>(model.nonzero_gib.mean()))
        << "run " << run;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(footprint.mean_gib()),
              std::bit_cast<std::uint64_t>(model.ablation_mean_gib))
        << "run " << run;
    const Histogram& h = footprint.histogram_gib();
    ASSERT_EQ(h.bin_count(), model.histogram.bin_count());
    EXPECT_EQ(h.total(), model.histogram.total());
    for (std::size_t i = 0; i < h.bin_count(); ++i) {
      EXPECT_EQ(h.count_in_bin(i), model.histogram.count_in_bin(i))
          << "run " << run << " bin " << i;
    }
  }
  // The streams reached every branch the reduction has.
  EXPECT_GE(empty_runs, 1u);
  EXPECT_GT(zeros, 0u);
  EXPECT_GT(above_range, 0u);
}

}  // namespace
}  // namespace ignem
