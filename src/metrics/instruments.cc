#include "metrics/instruments.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace ignem {

void HistogramMetric::record(std::int64_t v) {
  if (v < 0) v = 0;
  const std::size_t bucket =
      static_cast<std::size_t>(std::bit_width(static_cast<std::uint64_t>(v)));
  ++buckets_[bucket];  // bit_width of int64 max is 63, always in range
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

std::int64_t HistogramMetric::bucket_lo(std::size_t i) {
  IGNEM_CHECK(i < kBuckets);
  if (i == 0) return 0;
  return std::int64_t{1} << (i - 1);
}

std::int64_t HistogramMetric::bucket_hi(std::size_t i) {
  IGNEM_CHECK(i < kBuckets);
  if (i == 0) return 1;
  return i >= 63 ? INT64_MAX : (std::int64_t{1} << i);
}

TimeSeries::TimeSeries(Duration window) : window_(window) {
  IGNEM_CHECK(window > Duration::zero());
}

void TimeSeries::record(SimTime t, double v) {
  const std::int64_t w = window_.count_micros();
  const std::int64_t start = t.count_micros() / w * w;
  if (windows_.empty() || start > windows_.back().start_micros) {
    windows_.push_back(Window{start, v, v, v, v, 1});
    return;
  }
  Window& back = windows_.back();
  IGNEM_CHECK_MSG(start == back.start_micros,
                  "TimeSeries record out of order: window start "
                      << start << " before " << back.start_micros);
  back.last = v;
  back.min = std::min(back.min, v);
  back.max = std::max(back.max, v);
  back.sum += v;
  ++back.count;
}

}  // namespace ignem
