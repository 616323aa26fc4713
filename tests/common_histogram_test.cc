#include "common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"

namespace ignem {
namespace {

TEST(Histogram, BinsPartitionRange) {
  const Histogram h = Histogram::linear(0.0, 10.0, 5);
  EXPECT_EQ(h.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, CountsLandInRightBins) {
  Histogram h = Histogram::linear(0.0, 10.0, 5);
  h.add(1.0);   // bin 0
  h.add(2.0);   // bin 1
  h.add(9.99);  // bin 4
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(1), 1u);
  EXPECT_EQ(h.count_in_bin(4), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, OutOfRangeClampsInsteadOfDropping) {
  Histogram h = Histogram::linear(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(4), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram::linear(1.0, 1.0, 5), CheckFailure);
  EXPECT_THROW(Histogram::linear(0.0, 1.0, 0), CheckFailure);
}

TEST(Histogram, RenderShowsCountsAndLabel) {
  Histogram h = Histogram::linear(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string text = h.render("read times", "s");
  EXPECT_NE(text.find("read times (n=3)"), std::string::npos);
  EXPECT_NE(text.find("#"), std::string::npos);
}

TEST(Histogram, LogBinEdgesArePowers) {
  const Histogram h = Histogram::log(0.001, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 0.001);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 0.001);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 0.01);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, LogBinsSpanOrdersOfMagnitude) {
  Histogram h = Histogram::log(0.001, 10.0, 6);
  h.add(0.0005);  // below lo -> bin 0
  h.add(0.005);   // bin 1: [0.001, 0.01)
  h.add(5.0);     // bin 4: [1, 10)
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(1), 1u);
  EXPECT_EQ(h.count_in_bin(4), 1u);
}

TEST(Histogram, LogClampsAboveRange) {
  Histogram h = Histogram::log(1.0, 10.0, 3);
  h.add(1e9);
  EXPECT_EQ(h.count_in_bin(2), 1u);
}

TEST(Histogram, LogRejectsBadConstruction) {
  EXPECT_THROW(Histogram::log(0.0, 10.0, 3), CheckFailure);
  EXPECT_THROW(Histogram::log(1.0, 1.0, 3), CheckFailure);
  EXPECT_THROW(Histogram::log(1.0, 10.0, 0), CheckFailure);
}

// ---------------------------------------------------------------------------
// The edge search against the index formulas the two former histogram
// classes used, kept here as the model.

std::size_t clamp_bin(std::ptrdiff_t idx, std::size_t bins) {
  return static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(bins) - 1));
}

std::size_t linear_model_bin(double lo, double hi, std::size_t bins, double x) {
  return clamp_bin(static_cast<std::ptrdiff_t>((x - lo) / (hi - lo) *
                                               static_cast<double>(bins)),
                   bins);
}

std::size_t log_model_bin(double lo, double base, std::size_t bins, double x) {
  std::ptrdiff_t idx = 0;
  if (x > lo) {
    idx = static_cast<std::ptrdiff_t>(
              std::floor(std::log(x / lo) / std::log(base))) + 1;
  }
  return clamp_bin(idx, bins);
}

std::size_t bin_of(Histogram h, double x) {
  h.add(x);
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    if (h.count_in_bin(i) == 1) return i;
  }
  ADD_FAILURE() << "sample " << x << " landed in no bin";
  return h.bin_count();
}

// Fig. 7: locked bytes in GiB over 16 bins of 0.5 GiB. Samples are whole
// byte counts, as MemoryFootprint::add gets them, up to 10 GiB so the top
// bin's clamp is exercised, plus every edge and values below the range.
TEST(HistogramDifferential, LinearMatchesTheIndexFormulaOverFig7Range) {
  const Histogram fig7 = Histogram::linear(0.0, 8.0, 16);
  const auto check = [&](double gib) {
    ASSERT_EQ(bin_of(fig7, gib), linear_model_bin(0.0, 8.0, 16, gib))
        << "gib " << gib;
  };
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    check(static_cast<double>(rng.uniform_int(1, 10 * kGiB)) /
          static_cast<double>(kGiB));
  }
  for (int edge = 0; edge <= 20; ++edge) check(0.5 * edge);
  check(-1.0);
  check(1e12);
}

// Fig. 1: block read times in seconds over 14 power-of-two bins from 5 ms.
// Samples are whole microseconds divided by 1e6, as Duration::to_seconds
// gives them, from 0 to 200 s, plus the samples either side of every edge.
TEST(HistogramDifferential, LogMatchesTheIndexFormulaOverFig1Range) {
  const Histogram fig1 = Histogram::log(0.005, 2.0, 14);
  constexpr std::int64_t kLoMicros = 5000;
  const auto check = [&](std::int64_t micros) {
    if (micros == kLoMicros) return;  // the one disagreement, below
    const double seconds = static_cast<double>(micros) / 1e6;
    ASSERT_EQ(bin_of(fig1, seconds), log_model_bin(0.005, 2.0, 14, seconds))
        << "micros " << micros;
  };
  Rng rng(11);
  for (int i = 0; i < 100000; ++i) {
    // Log-uniform, so every bin sees samples.
    check(static_cast<std::int64_t>(std::exp(rng.uniform(0.0, std::log(2e8)))));
  }
  for (std::int64_t micros = kLoMicros; micros <= 100000000; micros *= 2) {
    check(micros - 1);
    check(micros);
    check(micros + 1);
  }
  check(0);
  // The one sample where the two disagree: the model put exactly `lo` in
  // bin 0, [0, lo), although its own printed edges give it to bin 1.
  EXPECT_EQ(bin_of(fig1, 0.005), 1u);
  EXPECT_EQ(log_model_bin(0.005, 2.0, 14, 0.005), 0u);
}

}  // namespace
}  // namespace ignem
