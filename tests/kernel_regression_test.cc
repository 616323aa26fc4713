// Kernel regression: pinned trace hashes for every RunMode.
//
// The scenarios (tests/pin_scenarios.h) run a small SWIM workload in every
// RunMode and a scaled-down Google trace in two, at seed 42 with fault
// tolerance off. The hashes below pin their traces exactly — same event
// times, same ordering, same rates. Unlike determinism_test (which only
// proves run-to-run stability of whatever the current build does), these
// constants anchor behavior across implementations.
//
// The kernel and storage rewrites each reproduced them bit for bit. The
// one re-pin, when kTier* events joined every traced run, moved no job:
// the traces were equal once those events are dropped.
//
// They are intentionally hard-coded, never regenerated automatically. A
// change that moves simulation semantics on purpose runs
// `scripts/regen_pins.sh <base-ref>`, which compares every pinned scenario
// between the base and the working tree and prints fresh values through
// IGNEM_PRINT_KERNEL_HASHES=1, and updates them in the same commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "pin_scenarios.h"

namespace ignem {
namespace {

struct PinnedCase {
  RunMode mode;
  std::uint64_t hash;
};

// In pins::kKernelSwimModes order; see the file comment.
// kHdfs and kHotDataPromotion coincide on this workload: no block crosses
// the promotion threshold, so the hot-data baseline degenerates to HDFS.
constexpr PinnedCase kPinned[] = {
    {RunMode::kHdfs, 3663303511790224256ull},
    {RunMode::kHdfsInputsInRam, 17377887143206449442ull},
    {RunMode::kIgnem, 5736808609878567108ull},
    {RunMode::kInstantMigration, 17185995046237400829ull},
    {RunMode::kHotDataPromotion, 3663303511790224256ull},
};

// In pins::kKernelGoogleModes order.
constexpr PinnedCase kPinnedGoogle[] = {
    {RunMode::kHdfs, 1641271935705618506ull},
    {RunMode::kIgnem, 12508234426096814124ull},
};

// The tables follow the scenario lists, so tests/pin_dump.cc dumps exactly
// the pinned cases.
template <std::size_t N>
constexpr bool same_modes(const PinnedCase (&pinned)[N],
                          const RunMode (&modes)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    if (pinned[i].mode != modes[i]) return false;
  }
  return true;
}
static_assert(same_modes(kPinned, pins::kKernelSwimModes));
static_assert(same_modes(kPinnedGoogle, pins::kKernelGoogleModes));

TEST(KernelRegression, TraceHashesMatchPreRewriteKernel) {
  const char* print = std::getenv("IGNEM_PRINT_KERNEL_HASHES");
  for (const PinnedCase& c : kPinned) {
    const std::uint64_t fresh =
        pins::run_kernel_swim(pins::kernel_config(c.mode))->trace_hash();
    if (print != nullptr && *print == '1') {
      std::cout << "    {RunMode::k" << run_mode_name(c.mode) << ", " << fresh
                << "ull},\n";
      continue;
    }
    EXPECT_EQ(fresh, c.hash)
        << run_mode_name(c.mode)
        << ": trace diverged from its pinned hash";
  }
}

TEST(KernelRegression, GoogleTraceHashesMatchPreTieringStorage) {
  const char* print = std::getenv("IGNEM_PRINT_KERNEL_HASHES");
  for (const PinnedCase& c : kPinnedGoogle) {
    const std::uint64_t fresh =
        pins::run_kernel_google(pins::kernel_config(c.mode))->trace_hash();
    if (print != nullptr && *print == '1') {
      std::cout << "    google {RunMode::k" << run_mode_name(c.mode) << ", "
                << fresh << "ull},\n";
      continue;
    }
    EXPECT_EQ(fresh, c.hash)
        << run_mode_name(c.mode)
        << ": Google-trace run diverged from its pinned hash";
  }
}

// A nonzero checksum verification cost must visibly slow reads (it defers
// each read completion by cost x GiB); the zero default's bit-identity with
// history is covered by the pinned-hash tests above.
TEST(KernelRegression, ChecksumCostSlowsReads) {
  const TestbedConfig base = pins::kernel_config(RunMode::kHdfs);
  const auto free_run = pins::run_kernel_swim(base);

  TestbedConfig costed_config = base;
  costed_config.integrity.checksum_cost_per_gib = Duration::seconds(2);
  const auto costed = pins::run_kernel_swim(costed_config);

  EXPECT_GT(costed->metrics().mean_block_read_seconds(),
            free_run->metrics().mean_block_read_seconds());
  EXPECT_GT(costed->metrics().mean_job_duration_seconds(),
            free_run->metrics().mean_job_duration_seconds());
}

}  // namespace
}  // namespace ignem
