#include "workload/hive.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ignem {
namespace {

TestbedConfig hive_config(RunMode mode) {
  TestbedConfig config;
  config.mode = mode;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 64 * kGiB;
  config.seed = 21;
  return config;
}

std::vector<HiveQuery> small_suite() {
  std::vector<HiveQuery> queries;
  queries.push_back({.id = 1, .fact_input = mib(256), .dim_input = mib(16),
                     .selectivity = 0.1});
  queries.push_back({.id = 2, .fact_input = mib(512), .dim_input = mib(16),
                     .selectivity = 0.1});
  return queries;
}

TEST(HiveSuite, HasEightQueriesSortedByInput) {
  const auto suite = tpcds_query_suite();
  ASSERT_EQ(suite.size(), 8u);
  for (std::size_t i = 1; i < suite.size(); ++i) {
    EXPECT_GT(suite[i].fact_input, suite[i - 1].fact_input);
  }
  // The paper's callouts are present.
  const auto has = [&](int id) {
    return std::any_of(suite.begin(), suite.end(),
                       [id](const HiveQuery& q) { return q.id == id; });
  };
  EXPECT_TRUE(has(3));
  EXPECT_TRUE(has(82));
  EXPECT_TRUE(has(25));
  EXPECT_TRUE(has(29));
}

TEST(HiveDriver, RunsQueriesSequentially) {
  Testbed testbed(hive_config(RunMode::kHdfs));
  HiveDriver driver(testbed);
  const auto results = driver.run_all(small_suite());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 1);
  EXPECT_EQ(results[1].id, 2);
  for (const auto& r : results) EXPECT_GT(r.duration.to_seconds(), 0.0);
  // Two stages per query.
  EXPECT_EQ(testbed.metrics().jobs().size(), 4u);
}

TEST(HiveDriver, IgnemAcceleratesQueries) {
  auto total = [](RunMode mode) {
    Testbed testbed(hive_config(mode));
    HiveDriver driver(testbed);
    double sum = 0;
    for (const auto& r : driver.run_all(small_suite())) {
      sum += r.duration.to_seconds();
    }
    return sum;
  };
  const double hdfs = total(RunMode::kHdfs);
  const double ignem = total(RunMode::kIgnem);
  EXPECT_LT(ignem, hdfs);
}

TEST(HiveDriver, OnlyStageOneMigrates) {
  Testbed testbed(hive_config(RunMode::kIgnem));
  HiveDriver driver(testbed);
  driver.run_all(small_suite());
  // Migrate commands exist (stage-1 scans) but the master saw exactly one
  // migrate request per query, not per stage.
  ASSERT_NE(testbed.ignem_master(), nullptr);
  // 2 queries: 2 migrate requests + up to 2 evict requests.
  EXPECT_GE(testbed.ignem_master()->stats().requests, 2u);
  EXPECT_LE(testbed.ignem_master()->stats().requests, 4u);
}

TEST(HiveDriver, QueryInputReported) {
  Testbed testbed(hive_config(RunMode::kHdfs));
  HiveDriver driver(testbed);
  const auto results = driver.run_all(small_suite());
  EXPECT_EQ(results[0].input, mib(256) + mib(16));
}

}  // namespace
}  // namespace ignem
