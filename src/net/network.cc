#include "net/network.h"

#include <algorithm>
#include <string>
#include <utility>

#include "metrics/registry.h"

namespace ignem {

Network::Network(Simulator& sim, std::size_t node_count, NetworkProfile profile,
                 int rack_count)
    : sim_(sim),
      profile_(profile),
      topology_(node_count, rack_count),
      reachability_(node_count) {
  IGNEM_CHECK(node_count > 0);
  BandwidthProfile bw;
  bw.sequential_bw = profile.nic_bw;
  nics_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    nics_.push_back(std::make_unique<SharedBandwidthResource>(
        sim, "nic/" + std::to_string(i), bw));
  }
}

SharedBandwidthResource& Network::nic(NodeId node) {
  IGNEM_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value()) < nics_.size());
  return *nics_[static_cast<std::size_t>(node.value())];
}

void Network::set_metrics_registry(MetricsRegistry* registry) {
  severed_bytes_ =
      registry == nullptr ? nullptr : &registry->histogram("net.severed_bytes");
}

void Network::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["net.transfers_severed"] += transfers_severed_;
}

std::uint32_t Network::track(NodeId src, NodeId dst) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(flights_.size());
    flights_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  InFlight& f = flights_[slot];
  f.seq = next_seq_++;
  f.src = src;
  f.dst = dst;
  return slot;
}

void Network::release(std::uint32_t slot) {
  flights_[slot] = InFlight{};
  free_slots_.push_back(slot);
}

void Network::transfer(NodeId src, NodeId dst, Bytes bytes,
                       Callback on_complete, Callback on_severed) {
  IGNEM_CHECK(bytes >= 0);
  if (src == dst) {
    // Intra-node handoff: no NIC involved (and never severable — a node
    // always reaches itself).
    sim_.schedule(Duration::micros(10), std::move(on_complete),
                  EventClass::kTransfer);
    return;
  }
  const std::uint32_t slot = track(src, dst);
  InFlight& f = flights_[slot];
  f.bytes = bytes;
  f.on_complete = std::move(on_complete);
  f.on_severed = std::move(on_severed);
  sim_.schedule(profile_.rtt, [this, slot] { start_stream(slot); },
                EventClass::kTransfer);
}

void Network::start_stream(std::uint32_t slot) {
  InFlight& f = flights_[slot];
  if (!reachable(f.src, f.dst)) {
    // The cut landed during the propagation delay: nothing moved.
    record_severed(f.dst, f.src.value(), f.bytes, 0);
    Callback severed = std::move(f.on_severed);
    release(slot);
    if (severed != nullptr) severed();
    return;
  }
  f.resource = &nic(f.src);
  f.handle = f.resource->start(f.bytes, [this, slot] { finish(slot); });
}

void Network::finish(std::uint32_t slot) {
  InFlight& f = flights_[slot];
  if (f.ingress) {
    IngressCallback done = std::move(f.on_ingress);
    const Bytes arrived = f.bytes;
    std::vector<IngressShare> unserved = std::move(f.unserved);
    release(slot);
    done(arrived, std::move(unserved));
    return;
  }
  Callback done = std::move(f.on_complete);
  release(slot);
  done();
}

void Network::ingress_transfer(NodeId dst, std::vector<IngressShare> shares,
                               IngressCallback on_done) {
  const std::uint32_t slot = track(dst, dst);
  InFlight& f = flights_[slot];
  f.ingress = true;
  f.shares = std::move(shares);
  f.on_ingress = std::move(on_done);
  sim_.schedule(profile_.rtt, [this, slot] { start_ingress_stream(slot); },
                EventClass::kTransfer);
}

void Network::start_ingress_stream(std::uint32_t slot) {
  // Gate each contributing share at stream start; admitted bytes move as
  // one receiver-NIC stream (the fan-in chokepoint), blocked ones go
  // straight back to the caller for retry after the heal.
  InFlight& f = flights_[slot];
  std::vector<IngressShare> live;
  for (IngressShare& share : f.shares) {
    if (share.bytes <= 0) continue;
    if (reachable(share.source, f.dst)) {
      f.bytes += share.bytes;
      live.push_back(share);
    } else {
      f.unserved.push_back(share);
    }
  }
  f.shares = std::move(live);
  if (f.bytes == 0 && !f.unserved.empty()) {
    IngressCallback done = std::move(f.on_ingress);
    std::vector<IngressShare> unserved = std::move(f.unserved);
    release(slot);
    done(0, std::move(unserved));
    return;
  }
  // A fan-in with nothing to move still runs its zero-byte stream: the
  // pinned traces count that completion event.
  f.resource = &nic(f.dst);
  f.handle = f.resource->start(f.bytes, [this, slot] { finish(slot); });
}

void Network::sever_partitioned_transfers() {
  std::vector<std::uint32_t> victims;
  for (std::uint32_t slot = 0; slot < flights_.size(); ++slot) {
    const InFlight& f = flights_[slot];
    if (f.resource == nullptr) continue;  // free, or not yet streaming
    const bool cut =
        f.ingress ? std::any_of(f.shares.begin(), f.shares.end(),
                                [this, &f](const IngressShare& share) {
                                  return !reachable(share.source, f.dst);
                                })
                  : !reachable(f.src, f.dst);
    if (cut) victims.push_back(slot);
  }
  std::sort(victims.begin(), victims.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return flights_[a].seq < flights_[b].seq;
            });
  // Collect callbacks before firing any: a severed-callback may start new
  // transfers (retries) on this network.
  std::vector<std::function<void()>> fire;
  fire.reserve(victims.size());
  for (const std::uint32_t slot : victims) {
    InFlight f = std::move(flights_[slot]);
    release(slot);
    const std::int64_t remaining = f.resource->remaining_bytes(f.handle);
    IGNEM_CHECK(remaining >= 0);
    const bool aborted = f.resource->abort(f.handle);
    IGNEM_CHECK(aborted);
    const Bytes progressed = f.bytes - Bytes(remaining);
    const Bytes refunded = f.bytes - progressed;
    if (f.ingress) {
      // Attribute served bytes to admitted shares in order; the exact
      // remainder comes back as unserved shares for retry. Conservation:
      // progressed + sum(unserved) == requested total.
      Bytes left = progressed;
      std::vector<IngressShare> unserved = std::move(f.unserved);
      for (const IngressShare& share : f.shares) {
        const Bytes got = std::min(share.bytes, left);
        left -= got;
        if (share.bytes > got) {
          unserved.push_back({share.source, share.bytes - got});
        }
      }
      record_severed(f.dst, -1, refunded, progressed);
      fire.push_back([done = std::move(f.on_ingress), progressed,
                      unserved = std::move(unserved)]() mutable {
        done(progressed, std::move(unserved));
      });
    } else {
      record_severed(f.dst, f.src.value(), refunded, progressed);
      if (f.on_severed != nullptr) fire.push_back(std::move(f.on_severed));
    }
  }
  for (auto& callback : fire) callback();
}

void Network::record_severed(NodeId dst, std::int64_t detail, Bytes refunded,
                             Bytes progressed) {
  ++transfers_severed_;
  if (severed_bytes_ != nullptr) severed_bytes_->record(refunded);
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kTransferSevered, dst, BlockId::invalid(),
                 JobId::invalid(), refunded, detail,
                 static_cast<double>(progressed));
  }
}

Bytes Network::total_bytes_sent(NodeId node) const {
  IGNEM_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value()) < nics_.size());
  return nics_[static_cast<std::size_t>(node.value())]->total_bytes_completed();
}

}  // namespace ignem
