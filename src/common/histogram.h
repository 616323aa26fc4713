// Fixed-bin histograms with ASCII rendering, used by the figure benches to
// print the same artifacts the paper plots.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ignem {

/// Histogram over an ascending edge list: bin i covers [edge i, edge i+1).
/// Samples below the second edge land in the first bin and samples at or
/// above the last inner edge in the last, so no data is silently dropped.
class Histogram {
 public:
  /// `bins` equal-width bins over [lo, hi).
  static Histogram linear(double lo, double hi, std::size_t bins);

  /// For quantities spanning orders of magnitude (e.g. block read times from
  /// RAM vs HDD): bin 0 is [0, lo), bin i >= 1 is
  /// [lo * base^(i-1), lo * base^i). `lo` must be > 0.
  static Histogram log(double lo, double base, std::size_t bins);

  void add(double x);

  std::size_t total() const { return total_; }
  std::size_t bin_count() const { return counts_.size(); }
  std::size_t count_in_bin(std::size_t i) const { return counts_.at(i); }
  double bin_lo(std::size_t i) const { return edges_.at(i); }
  double bin_hi(std::size_t i) const { return edges_.at(i + 1); }

  /// Multi-line bar rendering; `label` heads the block, `unit` suffixes bins.
  std::string render(const std::string& label, const std::string& unit,
                     std::size_t bar_width = 50) const;

 private:
  explicit Histogram(std::vector<double> edges);

  std::vector<double> edges_;  ///< bin_count() + 1 ascending edges.
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace ignem
