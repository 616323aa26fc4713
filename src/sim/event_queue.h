// Pending-event set for the discrete-event simulator: an index-tracked 4-ary
// min-heap keyed by (time, seq).
//
// The insertion seq breaks ties FIFO within a timestamp, which is what makes
// dispatch order (and every downstream random draw) deterministic. Cancel is
// a true O(log n) removal: a handle carries (slot, generation), each slot
// records where its entry currently sits in the heap, and cancel removes it
// from there directly — no tombstones, no hashing.
//
// Storage: 24-byte (time, seq, slot) records move through the heap;
// callbacks stay put in a slot arena (ChunkedVector — growth never
// move-constructs live callbacks) recycled through a free list, so a warmed
// queue's steady-state churn of inline callbacks performs zero heap
// allocations (bench_microkernel counts operator new calls to prove it).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/chunked_vector.h"
#include "common/small_function.h"
#include "common/units.h"

namespace ignem {

/// Coarse classification of a scheduled event, carried as slot metadata for
/// the kernel self-profile (Simulator::profile()). Purely observational: it
/// never participates in ordering, hashing, or dispatch, so tagging a site
/// cannot change a trace.
enum class EventClass : std::uint8_t {
  kGeneric = 0,   ///< Untagged (job control flow, tests).
  kTransfer,      ///< Bandwidth-channel completions.
  kPeriodic,      ///< Heartbeats, monitors, samplers, scrub ticks.
  kRpc,           ///< Control-plane RPC latencies (master/NN messaging).
  kMigration,     ///< Ignem slave wakes and migration pacing.
  kRetry,         ///< DFS read retry/failover backoff.
};
inline constexpr std::size_t kEventClassCount = 6;

const char* event_class_name(EventClass cls);

/// Opaque handle identifying a scheduled event; usable to cancel it.
/// Internally packs (slot + 1, generation); 0 is reserved for "invalid".
class EventHandle {
 public:
  constexpr EventHandle() = default;
  constexpr explicit EventHandle(std::uint64_t raw) : raw_(raw) {}

  static constexpr EventHandle invalid() { return EventHandle(); }

  constexpr bool valid() const { return raw_ != 0; }
  constexpr std::uint64_t raw() const { return raw_; }

  constexpr auto operator<=>(const EventHandle&) const = default;

 private:
  std::uint64_t raw_ = 0;
};

/// Pending-event set ordered by (time, seq). Not thread-safe; the simulator
/// is single-threaded by design (see Simulator).
class EventQueue {
 public:
  using Action = SmallFunction;

  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Adds an event; returns a handle to cancel it later.
  EventHandle push(SimTime when, Action action,
                   EventClass cls = EventClass::kGeneric);

  /// Removes a pending event in O(log n). Returns false if the handle was
  /// already fired, already cancelled, or never issued.
  bool cancel(EventHandle handle);

  /// True when no live events remain.
  bool empty() const { return heap_.empty(); }

  std::size_t live_count() const { return heap_.size(); }

  /// Time of the earliest live event. Requires !empty().
  SimTime next_time() const;

  /// Removes and returns the earliest live event. Requires !empty().
  std::pair<SimTime, Action> pop();

  /// Class tag of the event the last pop() returned (profiling metadata;
  /// read it before the next pop).
  EventClass last_popped_class() const { return last_cls_; }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  struct HeapEntry {
    std::int64_t when_micros;
    std::uint64_t seq;
    std::uint32_t slot;

    bool before(const HeapEntry& o) const {
      if (when_micros != o.when_micros) return when_micros < o.when_micros;
      return seq < o.seq;
    }
  };

  struct Slot {
    Action action;
    std::uint32_t gen = 1;
    std::uint32_t pos = 0;  ///< Index of this slot's entry in heap_.
    EventClass cls = EventClass::kGeneric;  ///< Profiling tag (see push).
    std::uint32_t next_free = kNoSlot;  // valid only while on the free list
  };

  static constexpr std::uint64_t pack(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(slot) + 1) << 32 | gen;
  }

  std::uint32_t acquire_slot(Action action, EventClass cls);
  void release_slot(std::uint32_t slot);

  // place() keeps every touched slot's pos current.
  void place(std::size_t pos, HeapEntry entry);
  void sift_up(std::size_t pos, HeapEntry entry);
  void sift_down(std::size_t pos, HeapEntry entry);
  /// Removes heap_[pos] (whose slot the caller has released) by re-placing
  /// the last entry.
  void remove_at(std::size_t pos);

  std::vector<HeapEntry> heap_;
  ChunkedVector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  EventClass last_cls_ = EventClass::kGeneric;
};

}  // namespace ignem
