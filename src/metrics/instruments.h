// Typed metric instruments for the sim-time telemetry plane.
//
// Two shapes for what is recorded during a run, both deliberately passive:
// recording never schedules events, touches the RNG, or reads the wall
// clock, so a run's trace (and therefore its pinned hash) is bit-identical
// whether metrics are recorded or not. Everything is keyed and windowed in
// *simulated* time — two identical seeded runs produce identical instrument
// contents byte for byte. End-of-run counts are not instruments: each
// component reports its own into the RunReport (metrics/report.h).
//
//   - HistogramMetric: log2-bucketed distribution of non-negative int64
//     samples (latencies in microseconds, sizes in bytes) in a fixed
//     64-bucket geometry.
//   - TimeSeries: per-window aggregation (last/min/max/sum/count) of a
//     signal sampled in sim time; windows roll over lazily on record, and
//     windows nothing sampled into are simply absent.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace ignem {

/// Log2-bucketed histogram over non-negative int64 samples. Bucket i holds
/// samples whose bit width is i, i.e. bucket 0 = {0}, bucket i>=1 =
/// [2^(i-1), 2^i).
class HistogramMetric {
 public:
  static constexpr std::size_t kBuckets = 64;

  /// Records one sample; negative values clamp to 0 (never dropped).
  void record(std::int64_t v);

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  /// Min/max of recorded samples; 0 when empty.
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  std::uint64_t bucket_count(std::size_t i) const { return buckets_[i]; }
  /// Inclusive lower bound of bucket i (0, 1, 2, 4, 8, ...).
  static std::int64_t bucket_lo(std::size_t i);
  /// Exclusive upper bound of bucket i (1, 2, 4, 8, ...).
  static std::int64_t bucket_hi(std::size_t i);

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Sim-time-windowed series: each record(t, v) lands in the window
/// containing t (windows are aligned multiples of the window width).
/// Recording into the current window updates its aggregate in place; a
/// record past it appends a new window (gaps are not materialized).
/// Sim time is monotone within a run, so records arrive in order; a record
/// before the newest window is a caller bug and trips a check.
class TimeSeries {
 public:
  struct Window {
    std::int64_t start_micros = 0;
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    std::uint64_t count = 0;
    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  explicit TimeSeries(Duration window);

  void record(SimTime t, double v);

  Duration window() const { return window_; }
  const std::vector<Window>& windows() const { return windows_; }
  bool empty() const { return windows_.empty(); }

 private:
  Duration window_;
  std::vector<Window> windows_;
};

}  // namespace ignem
