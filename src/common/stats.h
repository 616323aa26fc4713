// Summary statistics and empirical CDFs over simulation samples.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ignem {

/// A batch of samples with percentile queries and CDF export.
class Samples {
 public:
  void add(double x);
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double sum() const;
  double min() const;
  double max() const;

  /// Percentile in [0, 100] by linear interpolation. Requires non-empty.
  double percentile(double p) const;
  double median() const { return percentile(50); }

  /// Fraction of samples <= x. Returns 0 for empty sets.
  double fraction_at_most(double x) const;

  /// (value, cumulative fraction) pairs at `points` evenly spaced quantiles,
  /// suitable for plotting an empirical CDF.
  std::vector<std::pair<double, double>> cdf(std::size_t points = 100) const;

  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Renders a one-line summary: n, mean, p50, p95, p99, max.
std::string summarize(const Samples& s, const std::string& unit = "");

}  // namespace ignem
