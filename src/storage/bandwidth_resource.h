// Processor-sharing bandwidth model.
//
// A SharedBandwidthResource represents one channel (a disk, an SSD, a DRAM
// controller, a NIC) whose active transfers share bandwidth fairly. The
// aggregate bandwidth can degrade with the number of concurrent streams —
// the dominant effect on spinning disks, where interleaved streams force
// seeks:
//
//     aggregate(n) = seq_bw / (1 + degradation * (n - 1))
//     per_stream(n) = min(aggregate(n) / n, per_stream_cap)
//
// Every transfer-set change (start, abort, completion) first settles the
// channel: the per-stream progress since the last change is subtracted from
// every active transfer, clamped at zero. The earliest finisher then decides
// when the single pending completion event fires. Each change costs O(n) in
// the channel's active transfers; real channels carry a handful of streams
// (see docs/PERF.md), where this plain loop is the cheapest form.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/small_function.h"
#include "common/units.h"
#include "obs/trace_recorder.h"
#include "sim/simulator.h"

namespace ignem {

/// Identifies one in-flight transfer on a resource.
class TransferHandle {
 public:
  constexpr TransferHandle() = default;
  constexpr explicit TransferHandle(std::uint64_t id) : id_(id) {}
  static constexpr TransferHandle invalid() { return TransferHandle(); }
  constexpr bool valid() const { return id_ != 0; }
  constexpr std::uint64_t id() const { return id_; }
  constexpr auto operator<=>(const TransferHandle&) const = default;

 private:
  std::uint64_t id_ = 0;
};

/// Static description of a bandwidth channel.
struct BandwidthProfile {
  Bandwidth sequential_bw = 0;  ///< Aggregate bandwidth with one stream.
  double degradation = 0;       ///< Aggregate loss per extra stream (HDD ~0.4).
  Bandwidth per_stream_cap =
      std::numeric_limits<double>::infinity();  ///< e.g. one DMA engine's limit.
};

class SharedBandwidthResource {
 public:
  using Callback = SmallFunction;

  SharedBandwidthResource(Simulator& sim, std::string name,
                          BandwidthProfile profile);

  SharedBandwidthResource(const SharedBandwidthResource&) = delete;
  SharedBandwidthResource& operator=(const SharedBandwidthResource&) = delete;

  /// Begins a transfer of `bytes`; `on_complete` fires when it finishes.
  /// Zero-byte transfers complete on the next event dispatch.
  TransferHandle start(Bytes bytes, Callback on_complete);

  /// Aborts an in-flight transfer; its callback never fires. Returns false
  /// if the transfer already completed or was never started.
  bool abort(TransferHandle handle);

  /// Unserved bytes of an in-flight transfer (rounded up to whole bytes),
  /// or -1 when the handle is unknown (completed or aborted). Settles the
  /// channel without scheduling anything, so callers (partition severing)
  /// can account partial progress at the cut instant.
  std::int64_t remaining_bytes(TransferHandle handle);

  std::size_t active_transfers() const { return transfers_.size(); }

  /// Lifetime totals, for utilization accounting.
  Bytes total_bytes_completed() const { return bytes_completed_; }
  Duration busy_time() const;

  const std::string& name() const { return name_; }
  const BandwidthProfile& profile() const { return profile_; }

  /// Emits kBandwidthChange (active streams + per-stream rate) whenever the
  /// transfer set changes; `node` attributes the channel to its owner.
  void set_trace(TraceRecorder* trace, NodeId node) {
    trace_ = trace;
    trace_node_ = node;
  }

 private:
  struct Transfer {
    std::uint64_t id;
    double remaining;  ///< Unserved bytes as of last_update_.
    Bytes total_bytes;
    Callback on_complete;
  };

  /// The active transfer with `handle`'s id, or transfers_.end().
  std::vector<Transfer>::iterator find(TransferHandle handle);

  /// Subtracts the per-stream progress since last_update_ from every active
  /// transfer (clamped at zero).
  void settle();

  /// Emits the set change, then (re)schedules the completion event at the
  /// earliest finisher.
  void reschedule();

  /// Fires when the earliest transfer should have drained.
  void on_completion_event();

  Bandwidth per_stream_rate(std::size_t n) const;

  Simulator& sim_;
  std::string name_;
  BandwidthProfile profile_;
  TraceRecorder* trace_ = nullptr;
  NodeId trace_node_;

  /// Active transfers in start (= id) order, the order callbacks fire in.
  std::vector<Transfer> transfers_;
  std::uint64_t next_id_ = 1;
  SimTime last_update_ = SimTime::zero();
  EventHandle pending_event_ = EventHandle::invalid();

  Bytes bytes_completed_ = 0;
  // Busy-time accounting: accumulated whenever >=1 transfer is active.
  Duration busy_accum_ = Duration::zero();
  SimTime busy_since_ = SimTime::zero();
};

}  // namespace ignem
