#include "sim/simulator.h"

#include "common/check.h"

namespace ignem {

EventHandle Simulator::schedule(Duration delay, Action action,
                                EventClass cls) {
  IGNEM_CHECK(delay >= Duration::zero());
  return queue_.push(now_ + delay, std::move(action), cls);
}

EventHandle Simulator::schedule_at(SimTime when, Action action,
                                   EventClass cls) {
  IGNEM_CHECK_MSG(when >= now_, "cannot schedule in the past: when="
                                    << when.to_string()
                                    << " now=" << now_.to_string());
  return queue_.push(when, std::move(action), cls);
}

bool Simulator::cancel(EventHandle handle) { return queue_.cancel(handle); }

std::uint64_t Simulator::run(SimTime until) {
  return run_until([] { return false; }, until);
}

std::uint64_t Simulator::run_until(const std::function<bool()>& done,
                                   SimTime limit) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!queue_.empty() && !stop_requested_ && !done()) {
    if (queue_.next_time() > limit) break;
    auto [when, action] = queue_.pop();
    IGNEM_CHECK(when >= now_);
    now_ = when;
    ++profile_.events_dispatched;
    ++profile_.class_counts[static_cast<std::size_t>(
        queue_.last_popped_class())];
    // Depth right after the pop: the events this one contends with.
    const std::uint64_t depth = queue_.live_count();
    profile_.pending_sum += depth;
    if (depth > profile_.max_pending) profile_.max_pending = depth;
    action();
    ++n;
  }
  if (queue_.empty() && now_ < limit && limit != SimTime::max()) {
    now_ = limit;  // advance the clock to the requested horizon
  }
  return n;
}

}  // namespace ignem
