// MetricsRegistry: the named home of what a run records as it goes —
// histograms and time series. (End-of-run counts are not kept here: each
// component adds its own into the RunReport when it is built.)
//
// Components hold a `MetricsRegistry*` that defaults to nullptr, exactly
// like the TraceRecorder convention: a run without metrics pays one pointer
// compare per site and nothing else (the "near-zero-cost when disabled"
// half of the design). When wired, instruments are created on first lookup
// and live for the registry's lifetime, so hot paths cache the returned
// pointer/reference at wiring time and recording is a plain field update.
//
// Instruments are stored in std::map keyed by name: iteration order is the
// sorted name order, which is what makes RunReport JSON deterministic
// without a sort at snapshot time.
#pragma once

#include <map>
#include <string>

#include "common/units.h"
#include "metrics/instruments.h"

namespace ignem {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Instrument lookup, creating on first use. References are stable for
  /// the registry's lifetime (map nodes never move) — cache them at wiring
  /// time, not per record.
  HistogramMetric& histogram(const std::string& name) {
    return histograms_[name];
  }
  /// `window` applies on creation; a later lookup of an existing series
  /// must pass the same window (checked).
  TimeSeries& series(const std::string& name, Duration window);

  // Sorted-by-name views for exporters.
  const std::map<std::string, HistogramMetric>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, TimeSeries>& series() const { return series_; }

 private:
  std::map<std::string, HistogramMetric> histograms_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace ignem
