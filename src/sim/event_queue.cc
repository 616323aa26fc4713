#include "sim/event_queue.h"

#include <algorithm>

#include "common/check.h"

namespace ignem {

const char* event_class_name(EventClass cls) {
  switch (cls) {
    case EventClass::kGeneric:
      return "generic";
    case EventClass::kTransfer:
      return "transfer";
    case EventClass::kPeriodic:
      return "periodic";
    case EventClass::kRpc:
      return "rpc";
    case EventClass::kMigration:
      return "migration";
    case EventClass::kRetry:
      return "retry";
  }
  return "unknown";
}

std::uint32_t EventQueue::acquire_slot(Action action, EventClass cls) {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].action = std::move(action);
    slots_[slot].cls = cls;
    return slot;
  }
  IGNEM_CHECK(slots_.size() < kNoSlot);
  Slot& s = slots_.emplace_back();
  s.action = std::move(action);
  s.cls = cls;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action = nullptr;      // destroy the callable now, not at slot reuse
  ++s.gen;                 // invalidate outstanding handles
  s.next_free = free_head_;
  free_head_ = slot;
}

EventHandle EventQueue::push(SimTime when, Action action, EventClass cls) {
  IGNEM_CHECK(action != nullptr);
  const std::uint32_t slot = acquire_slot(std::move(action), cls);
  heap_.emplace_back();  // grow; sift_up() fills it
  sift_up(heap_.size() - 1, HeapEntry{when.count_micros(), next_seq_++, slot});
  return EventHandle(pack(slot, slots_[slot].gen));
}

bool EventQueue::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>((handle.raw() >> 32) - 1);
  const std::uint32_t gen = static_cast<std::uint32_t>(handle.raw());
  if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
  const std::uint32_t pos = slots_[slot].pos;
  release_slot(slot);
  remove_at(pos);
  return true;
}

SimTime EventQueue::next_time() const {
  IGNEM_CHECK(!heap_.empty());
  return SimTime(heap_.front().when_micros);
}

std::pair<SimTime, EventQueue::Action> EventQueue::pop() {
  IGNEM_CHECK(!heap_.empty());
  const HeapEntry top = heap_.front();
  std::pair<SimTime, Action> result{SimTime(top.when_micros),
                                    std::move(slots_[top.slot].action)};
  last_cls_ = slots_[top.slot].cls;
  // The action has been moved out; release still clears the husk.
  release_slot(top.slot);
  remove_at(0);
  return result;
}

void EventQueue::remove_at(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail entry itself
  // The displaced tail entry may belong above or below `pos`.
  if (pos > 0 && last.before(heap_[(pos - 1) / 4])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void EventQueue::place(std::size_t pos, HeapEntry entry) {
  heap_[pos] = entry;
  slots_[entry.slot].pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_up(std::size_t pos, HeapEntry entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!entry.before(heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void EventQueue::sift_down(std::size_t pos, HeapEntry entry) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t best = 0;
    const HeapEntry* best_entry = &entry;
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child; c < last_child; ++c) {
      if (heap_[c].before(*best_entry)) {
        best = c;
        best_entry = &heap_[c];
      }
    }
    if (best == 0) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, entry);
}

}  // namespace ignem
