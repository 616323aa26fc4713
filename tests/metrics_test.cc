// The metrics plane's contract tests.
//
// Two layers of guarantees are pinned here:
//   1. Instrument semantics — log2 histogram geometry and exact merges,
//      windowed time-series rollover, registry identity and window checks.
//   2. Determinism — two identical seeded runs emit byte-identical
//      RunReport JSON (each run in a fresh thread so thread_local kernel
//      alloc counters start cold, exactly like two separate processes),
//      a report read on another thread than the run's matches, and an
//      empty tier stack reports exactly what the explicit two-tier one does.
//   3. The memory footprint — the per-run aggregate Fig. 7 reads — matches
//      the per-sample rows it replaced, bit for bit.
// Inertness — recording never perturbs the simulation — is pinned by the
// trace hashes in kernel_regression_test: they predate the metrics plane
// and every Testbed now records metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/testbed.h"
#include "metrics/instruments.h"
#include "metrics/registry.h"
#include "metrics/report.h"
#include "metrics/run_metrics.h"
#include "test_util.h"
#include "workload/swim.h"

namespace ignem {
namespace {

// ---------------------------------------------------------------------------
// Instruments

TEST(CounterMetric, AddsAndSets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.set(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(GaugeMetric, SetsAndAccumulates) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(1.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 1.75);
}

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
  Counter& c = registry.counter("a.count");
  c.add(3);
  EXPECT_EQ(&registry.counter("a.count"), &c);
  EXPECT_EQ(registry.counter("a.count").value(), 3u);
  TimeSeries& s = registry.series("a.series", Duration::seconds(1.0));
  EXPECT_EQ(&registry.series("a.series", Duration::seconds(1.0)), &s);
  EXPECT_EQ(registry.counters().size(), 1u);
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

// One storage layout: an empty tier stack builds the paper's two tiers
// under UpwardOnHeat, so spelling that stack out changes nothing — not the
// trace, and not one byte of the report.
TEST(RunReportTest, EmptyTierStackMatchesExplicitTwoTierStack) {
  TestbedConfig empty_stack = small_config(RunMode::kIgnem);
  empty_stack.enable_trace = true;
  TestbedConfig explicit_stack = empty_stack;
  explicit_stack.tiering.tiers =
      two_tier_specs(profile_for(empty_stack.storage_media),
                     empty_stack.cache_capacity_per_node);
  const ReportRun a = run_in_fresh_thread(empty_stack);
  const ReportRun b = run_in_fresh_thread(explicit_stack);
  ASSERT_NE(a.trace_hash, 0u);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.json, b.json);
  EXPECT_NE(a.json.find("\"tier_policy\": \"upward-on-heat\""),
            std::string::npos);
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

// The fingerprint describes the stack the run built: an explicit stack's
// home tier, not config.storage_media, names the medium.
TEST(Fingerprint, StorageMediaNamesTheBuiltHomeTier) {
  TestbedConfig hdd = small_config(RunMode::kIgnem);
  hdd.tiering.tiers = {ram_tier(1 * kGiB), hdd_home_tier()};
  TestbedConfig ssd = hdd;
  ssd.tiering.tiers = {ram_tier(1 * kGiB),
                       TierSpec{"ssd", ssd_profile(), 0, 0.4}};
  const ConfigFingerprint a = Testbed(hdd).fingerprint();
  const ConfigFingerprint b = Testbed(ssd).fingerprint();
  EXPECT_EQ(a.storage_media, "HDD");
  EXPECT_EQ(b.storage_media, "SSD");
  EXPECT_NE(a.canonical(), b.canonical());
  EXPECT_NE(a.hash(), b.hash());

  // The paper's layout keeps naming config.storage_media.
  TestbedConfig paper = small_config(RunMode::kIgnem);
  paper.storage_media = MediaType::kSsd;
  EXPECT_EQ(Testbed(paper).fingerprint().storage_media, "SSD");
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
