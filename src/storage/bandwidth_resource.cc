#include "storage/bandwidth_resource.h"

#include <algorithm>
#include <cmath>

namespace ignem {

namespace {
// Transfers within this many bytes of zero are considered drained; guards
// against floating-point residue after settling.
constexpr double kEpsilonBytes = 1e-3;
}  // namespace

SharedBandwidthResource::SharedBandwidthResource(Simulator& sim,
                                                 std::string name,
                                                 BandwidthProfile profile)
    : sim_(sim), name_(std::move(name)), profile_(profile) {
  IGNEM_CHECK(profile_.sequential_bw > 0);
  IGNEM_CHECK(profile_.degradation >= 0);
  IGNEM_CHECK(profile_.per_stream_cap > 0);
  last_update_ = sim_.now();
}

Bandwidth SharedBandwidthResource::per_stream_rate(std::size_t n) const {
  if (n == 0) return 0;
  const double aggregate =
      profile_.sequential_bw /
      (1.0 + profile_.degradation * static_cast<double>(n - 1));
  return std::min(aggregate / static_cast<double>(n), profile_.per_stream_cap);
}

std::vector<SharedBandwidthResource::Transfer>::iterator
SharedBandwidthResource::find(TransferHandle handle) {
  const auto it = std::lower_bound(
      transfers_.begin(), transfers_.end(), handle.id(),
      [](const Transfer& t, std::uint64_t id) { return t.id < id; });
  return it != transfers_.end() && it->id == handle.id() ? it
                                                         : transfers_.end();
}

TransferHandle SharedBandwidthResource::start(Bytes bytes,
                                              Callback on_complete) {
  IGNEM_CHECK(bytes >= 0);
  IGNEM_CHECK(on_complete != nullptr);
  settle();
  if (transfers_.empty()) busy_since_ = sim_.now();
  const TransferHandle handle(next_id_++);
  transfers_.push_back(Transfer{handle.id(), static_cast<double>(bytes), bytes,
                                std::move(on_complete)});
  reschedule();
  return handle;
}

bool SharedBandwidthResource::abort(TransferHandle handle) {
  if (!handle.valid()) return false;
  const auto it = find(handle);
  if (it == transfers_.end()) return false;
  settle();
  transfers_.erase(it);
  if (transfers_.empty()) busy_accum_ += sim_.now() - busy_since_;
  reschedule();
  return true;
}

std::int64_t SharedBandwidthResource::remaining_bytes(TransferHandle handle) {
  if (!handle.valid()) return -1;
  const auto it = find(handle);
  if (it == transfers_.end()) return -1;
  settle();
  return static_cast<std::int64_t>(std::ceil(std::max(0.0, it->remaining)));
}

void SharedBandwidthResource::settle() {
  const Duration elapsed = sim_.now() - last_update_;
  last_update_ = sim_.now();
  if (elapsed <= Duration::zero() || transfers_.empty()) return;
  const double progressed =
      per_stream_rate(transfers_.size()) * elapsed.to_seconds();
  for (Transfer& t : transfers_) {
    t.remaining = std::max(0.0, t.remaining - progressed);
  }
}

void SharedBandwidthResource::reschedule() {
  if (pending_event_.valid()) {
    sim_.cancel(pending_event_);
    pending_event_ = EventHandle::invalid();
  }
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kBandwidthChange, trace_node_,
                 BlockId::invalid(), JobId::invalid(),
                 static_cast<Bytes>(profile_.sequential_bw),
                 static_cast<std::int64_t>(transfers_.size()),
                 per_stream_rate(transfers_.size()));
  }
  if (transfers_.empty()) return;
  double min_remaining = transfers_.front().remaining;
  for (const Transfer& t : transfers_) {
    min_remaining = std::min(min_remaining, t.remaining);
  }
  Duration eta = Duration::micros(1);
  if (min_remaining > kEpsilonBytes) {
    const double seconds = min_remaining / per_stream_rate(transfers_.size());
    eta = Duration::micros(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(seconds * 1e6))));
  }
  pending_event_ = sim_.schedule(eta, [this] { on_completion_event(); },
                                 EventClass::kTransfer);
}

void SharedBandwidthResource::on_completion_event() {
  pending_event_ = EventHandle::invalid();
  settle();
  // Drained transfers leave the set before any callback runs: a callback may
  // start new transfers on this same resource. Callbacks fire in start order.
  std::vector<Callback> done;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < transfers_.size(); ++i) {
    Transfer& t = transfers_[i];
    if (t.remaining <= kEpsilonBytes) {
      bytes_completed_ += t.total_bytes;
      done.push_back(std::move(t.on_complete));
    } else {
      if (kept != i) transfers_[kept] = std::move(t);
      ++kept;
    }
  }
  transfers_.erase(transfers_.begin() + static_cast<std::ptrdiff_t>(kept),
                   transfers_.end());
  if (transfers_.empty() && !done.empty()) {
    busy_accum_ += sim_.now() - busy_since_;
  }
  reschedule();
  for (Callback& on_complete : done) on_complete();
}

Duration SharedBandwidthResource::busy_time() const {
  Duration d = busy_accum_;
  if (!transfers_.empty()) d += sim_.now() - busy_since_;
  return d;
}

}  // namespace ignem
