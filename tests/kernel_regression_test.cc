// Kernel-rewrite regression: pinned trace hashes for every RunMode.
//
// The hashes below were captured at seed 42 from the original kernel
// (priority_queue + tombstone EventQueue, settle-all-transfers bandwidth
// model). The indexed-heap EventQueue and the current settle-all bandwidth
// loop must reproduce these traces *exactly* — same event times, same
// ordering, same rates — or this suite fails. Unlike
// determinism_test (which only proves run-to-run stability of whatever the
// current build does), these constants anchor behavior across kernel
// implementations.
//
// They are intentionally hard-coded, never regenerated automatically. If a
// future PR changes simulation *semantics* on purpose, update them in the
// same commit with a note in the message (IGNEM_PRINT_KERNEL_HASHES=1 runs
// print the fresh values).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "core/testbed.h"
#include "workload/google_trace.h"
#include "workload/swim.h"

namespace ignem {
namespace {

// Mirrors determinism_test's small-cluster setup, but at a fixed literal
// seed: pinned hashes must not follow IGNEM_TEST_SEED.
TestbedConfig pinned_config(RunMode mode) {
  TestbedConfig config;
  config.mode = mode;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 64 * kGiB;
  config.seed = 42;
  config.enable_trace = true;
  return config;
}

SwimConfig pinned_swim() {
  SwimConfig config;
  config.job_count = 12;
  config.total_input = 3 * kGiB;
  config.tail_max = 1 * kGiB;
  config.mean_interarrival = Duration::seconds(1.5);
  config.seed = 42;
  return config;
}

std::uint64_t run_pinned(RunMode mode) {
  Testbed testbed(pinned_config(mode));
  testbed.run_workload(build_swim_workload(testbed, pinned_swim()));
  return testbed.trace_hash();
}

// A scaled-down Google-trace workload (few servers, short horizon) so the
// pinned run stays fast while still mixing CPU-bound and IO-heavy jobs.
GoogleTestbedConfig pinned_google() {
  GoogleTestbedConfig config;
  config.trace.server_count = 8;
  config.trace.horizon = Duration::minutes(30);
  config.trace.tasks_per_server = 2.0;
  config.trace.seed = 42;
  return config;
}

std::uint64_t run_pinned_google(RunMode mode) {
  Testbed testbed(pinned_config(mode));
  testbed.run_workload(build_google_testbed_workload(testbed, pinned_google()));
  return testbed.trace_hash();
}

struct PinnedCase {
  RunMode mode;
  std::uint64_t hash;
};

// Captured with the pre-rewrite kernel; see file comment.
// kHdfs and kHotDataPromotion coincide on this workload: no block crosses
// the promotion threshold, so the hot-data baseline degenerates to HDFS.
constexpr PinnedCase kPinned[] = {
    {RunMode::kHdfs, 1039804277472788736ull},
    {RunMode::kHdfsInputsInRam, 17509705948812336385ull},
    {RunMode::kIgnem, 6649973183119269534ull},
    {RunMode::kInstantMigration, 8265058654439386556ull},
    {RunMode::kHotDataPromotion, 1039804277472788736ull},
};

// Captured on the pre-TierHierarchy storage layer; the two-tier hierarchy
// must reproduce these bit-identically (the PR 6 differential anchor).
constexpr PinnedCase kPinnedGoogle[] = {
    {RunMode::kHdfs, 7154479743890652874ull},
    {RunMode::kIgnem, 13950215267833423977ull},
};

TEST(KernelRegression, TraceHashesMatchPreRewriteKernel) {
  const char* print = std::getenv("IGNEM_PRINT_KERNEL_HASHES");
  for (const PinnedCase& c : kPinned) {
    const std::uint64_t fresh = run_pinned(c.mode);
    if (print != nullptr && *print == '1') {
      std::cout << "    {RunMode::k" << run_mode_name(c.mode) << ", " << fresh
                << "ull},\n";
      continue;
    }
    EXPECT_EQ(fresh, c.hash)
        << run_mode_name(c.mode)
        << ": trace diverged from the pre-rewrite kernel";
  }
}

TEST(KernelRegression, GoogleTraceHashesMatchPreTieringStorage) {
  const char* print = std::getenv("IGNEM_PRINT_KERNEL_HASHES");
  for (const PinnedCase& c : kPinnedGoogle) {
    const std::uint64_t fresh = run_pinned_google(c.mode);
    if (print != nullptr && *print == '1') {
      std::cout << "    google {RunMode::k" << run_mode_name(c.mode) << ", "
                << fresh << "ull},\n";
      continue;
    }
    EXPECT_EQ(fresh, c.hash)
        << run_mode_name(c.mode)
        << ": Google-trace run diverged from the pre-tiering storage layer";
  }
}

// The differential contract of the TierHierarchy refactor: spelling the
// legacy layout out as an explicit two-tier stack (RAM pool over the
// primary device, UpwardOnHeat policy) must route every byte through the
// generalized tier machinery and still reproduce the pinned pre-refactor
// hashes bit for bit — same events, same order, same times.
TestbedConfig explicit_two_tier(TestbedConfig config) {
  config.tiering.tiers = two_tier_specs(
      config.primary_profile.value_or(profile_for(config.storage_media)),
      config.cache_capacity_per_node);
  config.tiering.policy = TierPolicyKind::kUpwardOnHeat;
  return config;
}

TEST(KernelRegression, ExplicitTwoTierSwimMatchesPinnedHashes) {
  for (const PinnedCase& c : kPinned) {
    Testbed testbed(explicit_two_tier(pinned_config(c.mode)));
    testbed.run_workload(build_swim_workload(testbed, pinned_swim()));
    EXPECT_EQ(testbed.trace_hash(), c.hash)
        << run_mode_name(c.mode)
        << ": explicit two-tier TierHierarchy diverged from the legacy "
           "storage layout on the SWIM workload";
  }
}

TEST(KernelRegression, ExplicitTwoTierGoogleMatchesPinnedHashes) {
  for (const PinnedCase& c : kPinnedGoogle) {
    Testbed testbed(explicit_two_tier(pinned_config(c.mode)));
    testbed.run_workload(
        build_google_testbed_workload(testbed, pinned_google()));
    EXPECT_EQ(testbed.trace_hash(), c.hash)
        << run_mode_name(c.mode)
        << ": explicit two-tier TierHierarchy diverged from the legacy "
           "storage layout on the Google trace";
  }
}

// A nonzero checksum verification cost must visibly slow reads (it defers
// each read completion by cost x GiB); the zero default's bit-identity with
// history is covered by the pinned-hash tests above.
TEST(KernelRegression, ChecksumCostSlowsReads) {
  TestbedConfig base = pinned_config(RunMode::kHdfs);
  Testbed free_run(base);
  free_run.run_workload(build_swim_workload(free_run, pinned_swim()));

  TestbedConfig costed_config = base;
  costed_config.integrity.checksum_cost_per_gib = Duration::seconds(2);
  Testbed costed(costed_config);
  costed.run_workload(build_swim_workload(costed, pinned_swim()));

  EXPECT_GT(costed.metrics().mean_block_read_seconds(),
            free_run.metrics().mean_block_read_seconds());
  EXPECT_GT(costed.metrics().mean_job_duration_seconds(),
            free_run.metrics().mean_job_duration_seconds());
}

}  // namespace
}  // namespace ignem
