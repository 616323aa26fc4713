// Cluster network fabric.
//
// Each node has a NIC modeled as a shared-bandwidth channel; a remote
// transfer pays one propagation delay and shares the *source* NIC's egress
// bandwidth. The paper's premise (§III-A2, citing Flat Datacenter Storage)
// is that datacenter network bandwidth is not a bottleneck — a 10 Gbps NIC
// far outruns a contended HDD — so an egress-limited single-resource model
// preserves the relevant behaviour: remote reads of migrated blocks are
// nearly as fast as local ones.
//
// Partition semantics: read paths consult `reachable` before choosing a
// source, every transfer re-checks reachability when its stream starts, and
// transfers already moving when a cut lands are aborted at the cut with
// partial-progress accounting (the unserved remainder is refunded: the
// completion callback never fires and no replica/byte totals count it).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "net/reachability.h"
#include "net/topology.h"
#include "storage/bandwidth_resource.h"

namespace ignem {

class MetricsRegistry;
class HistogramMetric;

struct NetworkProfile {
  Bandwidth nic_bw = gib_per_sec(1.25);  ///< 10 Gbps.
  Bandwidth per_flow_cap = gib_per_sec(1.25);
  Duration rtt = Duration::micros(200);
  /// Aggregate NIC loss per extra concurrent flow (see BandwidthProfile).
  /// Zero models the paper's uncontended datacenter fabric; experiments on
  /// degraded networks (and the fault injector's contention windows) raise
  /// it so concurrent flows genuinely slow each other down.
  double degradation = 0.0;
  /// Rack fabric: rack_uplink_bw > 0 adds one oversubscribed shared uplink
  /// channel per rack that every cross-rack transfer must traverse after
  /// its source NIC; zero (the default) keeps the flat single-switch fabric
  /// and the historical event stream bit-identical.
  Bandwidth rack_uplink_bw = 0.0;
};

class Network {
 public:
  using Callback = std::function<void()>;

  /// One contributing sender of a fan-in (shuffle-style) transfer.
  struct IngressShare {
    NodeId source;
    Bytes bytes = 0;
  };
  /// Completion of a gated fan-in: `arrived` bytes landed; `unserved` lists
  /// the (source, bytes) shares that did not — blocked by the reachability
  /// matrix when the stream started, or refunded when a cut severed the
  /// stream mid-flight. arrived + sum(unserved) == the requested total, so
  /// callers retry exactly the missing shares. Empty unserved == done.
  using IngressCallback =
      std::function<void(Bytes arrived, std::vector<IngressShare> unserved)>;

  /// `rack_count` racks, nodes dealt round-robin (Topology); the Testbed
  /// passes TestbedConfig::rack_count, so placement and the network agree
  /// on rack membership.
  Network(Simulator& sim, std::size_t node_count, NetworkProfile profile,
          int rack_count = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Moves `bytes` from `src` to `dst`. Local (src == dst) transfers bypass
  /// the NIC and complete after a single memcpy-scale delay. A partition
  /// cut between src and dst before or during the stream severs the
  /// transfer: `on_severed` fires (exactly once, instead of on_complete;
  /// null when the caller has no retry to make) and the unserved remainder
  /// is refunded — it never counts toward byte totals, and
  /// kTransferSevered records the split.
  void transfer(NodeId src, NodeId dst, Bytes bytes, Callback on_complete,
                Callback on_severed = nullptr);

  /// A fan-in transfer (e.g. shuffle) limited by the *destination* NIC:
  /// data arrives from many senders at once, so the receiver is the shared
  /// chokepoint. When the stream starts (one RTT after the call) each share
  /// is admitted only if its source can currently reach `dst`; admitted
  /// bytes move as one receiver-NIC stream and blocked shares come back in
  /// `unserved`. A cut that blocks any admitted source mid-stream severs
  /// the stream: bytes served so far are attributed to shares in order and
  /// the rest is refunded via `unserved`.
  void ingress_transfer(NodeId dst, std::vector<IngressShare> shares,
                        IngressCallback on_done);

  std::size_t node_count() const { return nics_.size(); }
  Bytes total_bytes_sent(NodeId node) const;

  /// A node's NIC channel. Public so the fault injector can pin background
  /// hog flows on it (network-degradation windows) and abort them later.
  SharedBandwidthResource& nic(NodeId node);

  const Topology& topology() const { return topology_; }

  /// Partition state. Mutated by the fault plane; read paths consult
  /// `reachable` before choosing a source (fully-connected fast path).
  ReachabilityMatrix& reachability() { return reachability_; }
  bool reachable(NodeId src, NodeId dst) const {
    return reachability_.reachable(src, dst);
  }

  /// Aborts every in-flight stream the matrix now blocks. The fault plane
  /// calls this after applying a cut; heals need nothing (new transfers
  /// simply pass the gate again).
  void sever_partitioned_transfers();

  /// Lifetime count of severed transfers (fan-ins count once per stream).
  std::uint64_t transfers_severed() const { return transfers_severed_; }
  /// Adds transfers_severed to `counters` as net.transfers_severed.
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;

  /// Emits kTransferSevered events; safe to leave null.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  /// Arms the net.severed_bytes histogram (refunded bytes per sever).
  void set_metrics_registry(MetricsRegistry* registry);

  /// The shared uplink channel of `rack`. Only valid when the profile set
  /// rack_uplink_bw > 0.
  SharedBandwidthResource& rack_uplink(int rack);
  bool has_rack_uplinks() const { return !uplinks_.empty(); }

 private:
  /// One cross-node transfer, from the call until it completes or is
  /// severed. Slots are recycled, so tracking a transfer allocates nothing
  /// once the table has grown to the peak number in flight.
  struct InFlight {
    std::uint64_t seq = 0;  ///< Call order; sever callbacks fire in it.
    NodeId src;  ///< Sender (fan-ins: the destination, stream owner).
    NodeId dst;
    Bytes bytes = 0;  ///< Stream total (fan-ins: admitted bytes).
    /// Channel of the current stage; null during the propagation delay
    /// (the stream start re-checks reachability, so cuts skip it).
    SharedBandwidthResource* resource = nullptr;
    TransferHandle handle;
    /// True once the stream is on its last serial stage; partial progress
    /// only counts as delivered there (earlier legs never crossed the cut).
    bool final_stage = true;
    bool ingress = false;
    Callback on_complete;                ///< Point-to-point flights.
    Callback on_severed;
    std::vector<IngressShare> shares;    ///< Fan-in: admitted shares.
    std::vector<IngressShare> unserved;  ///< Fan-in: blocked at start.
    IngressCallback on_ingress;
  };

  /// Claims a slot for a new flight from src to dst.
  std::uint32_t track(NodeId src, NodeId dst);
  /// Resets `slot` and returns it to the free list.
  void release(std::uint32_t slot);
  void start_stream(std::uint32_t slot, bool via_uplink);
  void start_ingress_stream(std::uint32_t slot);
  void finish(std::uint32_t slot);
  /// Records one sever (trace + counters) of `refunded` unserved bytes;
  /// detail = source node id, or -1 for fan-in streams.
  void record_severed(NodeId dst, std::int64_t detail, Bytes refunded,
                      Bytes progressed);

  Simulator& sim_;
  NetworkProfile profile_;
  Topology topology_;
  ReachabilityMatrix reachability_;
  std::vector<std::unique_ptr<SharedBandwidthResource>> nics_;
  std::vector<std::unique_ptr<SharedBandwidthResource>> uplinks_;

  std::vector<InFlight> flights_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t transfers_severed_ = 0;
  TraceRecorder* trace_ = nullptr;
  HistogramMetric* severed_bytes_ = nullptr;
};

}  // namespace ignem
