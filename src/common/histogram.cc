#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace ignem {

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges)), counts_(edges_.size() - 1, 0) {}

Histogram Histogram::linear(double lo, double hi, std::size_t bins) {
  IGNEM_CHECK(hi > lo && bins > 0);
  std::vector<double> edges;
  for (std::size_t i = 0; i <= bins; ++i) {
    edges.push_back(lo + (hi - lo) * static_cast<double>(i) /
                             static_cast<double>(bins));
  }
  return Histogram(std::move(edges));
}

Histogram Histogram::log(double lo, double base, std::size_t bins) {
  IGNEM_CHECK(lo > 0 && base > 1 && bins > 0);
  std::vector<double> edges{0.0};
  for (std::size_t i = 1; i <= bins; ++i) {
    edges.push_back(lo * std::pow(base, static_cast<double>(i - 1)));
  }
  return Histogram(std::move(edges));
}

void Histogram::add(double x) {
  // Only the inner edges separate bins; the outer two just label the end
  // bins, which is what clamps out-of-range samples into them.
  const auto inner = edges_.begin() + 1;
  const auto bin = std::upper_bound(inner, edges_.end() - 1, x) - inner;
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::string Histogram::render(const std::string& label, const std::string& unit,
                              std::size_t bar_width) const {
  std::ostringstream os;
  os << label << " (n=" << total_ << ")\n";
  const std::size_t max_count = *std::max_element(counts_.begin(), counts_.end());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t c = counts_[i];
    if (c == 0) continue;
    const auto width = static_cast<std::size_t>(
        static_cast<double>(c) * static_cast<double>(bar_width) /
        static_cast<double>(max_count));
    os << "  [" << std::setw(10) << std::setprecision(4) << bin_lo(i) << ", "
       << std::setw(10) << std::setprecision(4) << bin_hi(i) << ") " << unit
       << " |" << std::string(width, '#') << " " << c << " (" << std::fixed
       << std::setprecision(1)
       << 100.0 * static_cast<double>(c) / static_cast<double>(total_) << "%)"
       << std::defaultfloat << "\n";
  }
  return os.str();
}

}  // namespace ignem
