// Kernel regression: pinned trace hashes for every RunMode.
//
// The scenarios (tests/pin_scenarios.h) run a small SWIM workload in every
// RunMode and a scaled-down Google trace in two, at seed 42 with fault
// tolerance off. The hashes below pin their traces exactly — same event
// times, same ordering, same rates. Unlike determinism_test (which only
// proves run-to-run stability of whatever the current build does), these
// constants anchor behavior across implementations.
//
// The kernel and storage rewrites each reproduced them bit for bit. Three
// re-pins moved no job: when tier move events joined every traced run, when
// they left it again because the pool's own cache events already record
// each move, and when nine event types that nothing read or that restated
// other events left the trace (the kernel's run markers, which hashed the
// dispatched-event count, among them). Each time the traces were equal once
// the events of the types only one side had are dropped.
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
    {RunMode::kHdfs, 9341901313750226772ull},
    {RunMode::kHdfsInputsInRam, 6272953061401605491ull},
    {RunMode::kIgnem, 14812109527811016948ull},
    {RunMode::kInstantMigration, 10026242656569776521ull},
    {RunMode::kHotDataPromotion, 9341901313750226772ull},
};

// In pins::kKernelGoogleModes order.
constexpr PinnedCase kPinnedGoogle[] = {
    {RunMode::kHdfs, 17574045400008761391ull},
    {RunMode::kIgnem, 9790250606457708341ull},
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

}  // namespace
}  // namespace ignem
