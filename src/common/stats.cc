#include "common/stats.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/check.h"

namespace ignem {

void Samples::add(double x) {
  values_.push_back(x);
  sorted_valid_ = false;
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  return sum() / static_cast<double>(values_.size());
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::min() const {
  IGNEM_CHECK(!values_.empty());
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  IGNEM_CHECK(!values_.empty());
  return *std::max_element(values_.begin(), values_.end());
}

void Samples::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = values_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Samples::percentile(double p) const {
  IGNEM_CHECK(!values_.empty());
  IGNEM_CHECK(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double Samples::fraction_at_most(double x) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

std::vector<std::pair<double, double>> Samples::cdf(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (values_.empty() || points == 0) return out;
  ensure_sorted();
  out.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(points);
    const auto idx = std::min(
        sorted_.size() - 1,
        static_cast<std::size_t>(frac * static_cast<double>(sorted_.size())));
    out.emplace_back(sorted_[idx], frac);
  }
  return out;
}

std::string summarize(const Samples& s, const std::string& unit) {
  std::ostringstream os;
  os.precision(4);
  if (s.empty()) {
    os << "n=0";
    return os.str();
  }
  os << "n=" << s.count() << " mean=" << s.mean() << unit
     << " p50=" << s.percentile(50) << unit << " p95=" << s.percentile(95)
     << unit << " p99=" << s.percentile(99) << unit << " max=" << s.max()
     << unit;
  return os.str();
}

}  // namespace ignem
