// Structured event-trace recorder.
//
// Components hold a `TraceRecorder*` that defaults to nullptr; emission
// sites are `if (trace_) trace_->emit(...)`, so a run without tracing pays
// one pointer compare per site and nothing else. When wired (Testbed does
// this when `enable_trace` is set), every emitted event is stamped with a
// sequence number and the simulated time, appended to the in-memory trace,
// folded into a running FNV-1a hash, and forwarded to any registered
// observers (the InvariantChecker is one). Every emitted event is recorded:
// a reader that wants a slice (the golden trace) selects it from events().
#pragma once

#include <functional>
#include <iosfwd>
#include <vector>

#include "obs/trace_event.h"

namespace ignem {

/// Receives every recorded event, in emission order.
class TraceObserver {
 public:
  virtual ~TraceObserver() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

class TraceRecorder {
 public:
  using Clock = std::function<SimTime()>;

  TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Source of event timestamps; Testbed binds this to Simulator::now.
  /// Unset, events are stamped SimTime::zero().
  void set_clock(Clock clock) { clock_ = std::move(clock); }

  /// Records one event. `seq` and `time` are assigned here; callers fill
  /// the payload fields only.
  void emit(TraceEventType type, NodeId node = NodeId::invalid(),
            BlockId block = BlockId::invalid(), JobId job = JobId::invalid(),
            Bytes bytes = 0, std::int64_t detail = 0, double value = 0.0);

  /// Observers see events as they are emitted. Not owned; must outlive the
  /// recorder's emission lifetime.
  void add_observer(TraceObserver* observer);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Running FNV-1a digest over every recorded event's serialized fields.
  /// Two runs are bit-for-bit identical iff their hashes match (64-bit
  /// collision risk aside) — the determinism regression primitive.
  std::uint64_t trace_hash() const { return hash_; }

  /// One JSON object per line, stable field order; the golden-trace format.
  void write_jsonl(std::ostream& os) const;

  /// Compact little-endian binary: header + packed events.
  void write_binary(std::ostream& os) const;

  /// Parses write_binary() output (trace diffing across runs/processes).
  /// Throws CheckFailure on a malformed stream.
  static std::vector<TraceEvent> read_binary(std::istream& is);

  /// Serializes one event as a JSONL line (shared with TraceDiff output).
  static void append_jsonl(std::ostream& os, const TraceEvent& event);

 private:
  Clock clock_;
  std::vector<TraceEvent> events_;
  std::vector<TraceObserver*> observers_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t hash_;
};

}  // namespace ignem
