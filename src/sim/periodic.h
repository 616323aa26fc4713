// Self-rescheduling periodic callback (heartbeats, monitors).
#pragma once

#include <functional>
#include <utility>

#include "common/units.h"
#include "sim/simulator.h"

namespace ignem {

/// Runs `tick` every `period` of simulated time until stopped or destroyed.
/// The first tick fires after `initial_delay` (defaults to one period).
class PeriodicTask {
 public:
  using Tick = std::function<void()>;

  PeriodicTask(Simulator& sim, Duration period, Tick tick)
      : PeriodicTask(sim, period, period, std::move(tick)) {}

  PeriodicTask(Simulator& sim, Duration initial_delay, Duration period,
               Tick tick)
      : sim_(sim), period_(period), tick_(std::move(tick)) {
    IGNEM_CHECK(period_ > Duration::zero());
    handle_ =
        sim_.schedule(initial_delay, [this] { fire(); }, EventClass::kPeriodic);
  }

  ~PeriodicTask() { stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Cancels future ticks. Idempotent.
  void stop() {
    if (handle_.valid()) {
      sim_.cancel(handle_);
      handle_ = EventHandle::invalid();
    }
    running_ = false;
  }

  bool running() const { return running_; }

 private:
  void fire() {
    handle_ =
        sim_.schedule(period_, [this] { fire(); }, EventClass::kPeriodic);
    tick_();
  }

  Simulator& sim_;
  Duration period_;
  Tick tick_;
  EventHandle handle_ = EventHandle::invalid();
  bool running_ = true;
};

}  // namespace ignem
