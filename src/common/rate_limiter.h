// Deterministic sim-time token bucket (GCRA formulation).
//
// Paces re-replication traffic against the configured repair budget
// without scheduling any events of its own: the ReplicationManager asks
// "how long must this copy wait to conform?" and does its own scheduling.
// State is a single theoretical-arrival-time in integer microseconds, so
// the limiter is exactly reproducible and costs O(1) per decision.
// Unthrottled repair has no limiter at all.
#pragma once

#include "common/units.h"

namespace ignem {

/// Token bucket over sim time. `rate` (> 0, checked) is the sustained
/// allowance in bytes/sec; `burst` is how many bytes may pass
/// instantaneously after an idle period before pacing kicks in. All math is
/// integer microseconds (via transfer_time) so identical call sequences
/// produce identical waits.
class RateLimiter {
 public:
  RateLimiter(Bandwidth rate, Bytes burst);

  /// Commits `bytes` to the schedule and returns how long the caller must
  /// wait from `now` before starting them. Zero means "go now". The debit
  /// is unconditional — callers that reserve must eventually send.
  Duration reserve(Bytes bytes, SimTime now);

 private:
  Bandwidth rate_;
  Duration burst_window_;   ///< transfer_time(burst, rate): slack a full bucket buys.
  SimTime tat_{0};          ///< Theoretical arrival time of the next conforming byte.
};

}  // namespace ignem
