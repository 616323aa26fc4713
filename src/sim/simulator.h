// The discrete-event simulation kernel.
//
// A Simulator owns the clock and the event queue. Components schedule
// callbacks at relative delays or absolute times; run() dispatches events in
// (time, insertion) order until the queue drains, a time limit is hit, or
// stop() is called. Single-threaded: determinism matters more than
// parallelism at the scales we simulate (an 8–40 node cluster over minutes
// of simulated time runs in well under a second of wall time).
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "common/units.h"
#include "sim/event_queue.h"

namespace ignem {

/// Kernel self-profile, accumulated on every dispatch. Everything here is a
/// pure function of the dispatch stream — no wall clock, no allocator state
/// — so two identical seeded runs produce identical profiles on any thread
/// and the numbers can appear in deterministic reports.
struct KernelProfile {
  std::uint64_t events_dispatched = 0;
  /// Peak live-event count observed at dispatch time.
  std::uint64_t max_pending = 0;
  /// Sum of live-event counts over dispatches (mean = sum / dispatched).
  std::uint64_t pending_sum = 0;
  /// Dispatches by EventClass tag (index = static_cast<size_t>(cls)).
  std::array<std::uint64_t, kEventClassCount> class_counts{};

  double mean_pending() const {
    return events_dispatched == 0
               ? 0.0
               : static_cast<double>(pending_sum) /
                     static_cast<double>(events_dispatched);
  }
};

class Simulator {
 public:
  using Action = EventQueue::Action;

  Simulator() = default;

  // The event queue holds callbacks that capture `this` of components that
  // in turn reference the simulator; copying/moving would dangle them.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `action` to run `delay` from now. Delay must be >= 0. The
  /// class tag is profiling metadata only (see EventClass).
  EventHandle schedule(Duration delay, Action action,
                       EventClass cls = EventClass::kGeneric);

  /// Schedules `action` at an absolute time >= now().
  EventHandle schedule_at(SimTime when, Action action,
                          EventClass cls = EventClass::kGeneric);

  /// Cancels a previously scheduled event; false if it already fired.
  bool cancel(EventHandle handle);

  /// Runs until the queue drains or `until` is reached (events at exactly
  /// `until` are executed). Returns the number of events dispatched.
  std::uint64_t run(SimTime until = SimTime::max());

  /// Runs until the queue drains, a limit is reached, or the predicate
  /// returns true. The predicate is tested before each pop, and only while
  /// an event is pending and no stop() is requested: a predicate already
  /// true dispatches nothing, and the state left by an event that drains
  /// the queue or calls stop() is never tested. A caller that must observe
  /// every event's state tests once more after the call.
  std::uint64_t run_until(const std::function<bool()>& done,
                          SimTime limit = SimTime::max());

  /// Requests run() to return after the current event completes.
  void stop() { stop_requested_ = true; }

  /// Number of events dispatched since construction.
  std::uint64_t events_dispatched() const {
    return profile_.events_dispatched;
  }

  /// Live events currently pending.
  std::size_t pending_events() const { return queue_.live_count(); }

  /// Class counts and queue depth over every dispatch since construction.
  const KernelProfile& profile() const { return profile_; }

 private:
  SimTime now_ = SimTime::zero();
  EventQueue queue_;
  bool stop_requested_ = false;
  KernelProfile profile_;
};

}  // namespace ignem
