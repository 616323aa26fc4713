#include "common/rate_limiter.h"

#include "common/check.h"

namespace ignem {

RateLimiter::RateLimiter(Bandwidth rate, Bytes burst) : rate_(rate) {
  IGNEM_CHECK(rate > 0.0);
  IGNEM_CHECK(burst >= 0);
  burst_window_ = transfer_time(burst, rate);
}

Duration RateLimiter::reserve(Bytes bytes, SimTime now) {
  IGNEM_CHECK(bytes >= 0);
  const Duration cost = transfer_time(bytes, rate_);
  if (tat_ < now) tat_ = now;  // Idle time refills the bucket (capped below).
  const SimTime earliest = tat_ - burst_window_;
  const Duration wait =
      earliest > now ? earliest - now : Duration::zero();
  tat_ = tat_ + cost;
  return wait;
}

}  // namespace ignem
