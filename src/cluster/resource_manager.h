// ResourceManager: centralized, heartbeat-driven container scheduling.
//
// Models the YARN pattern the paper leans on for lead-time (§II-C1): tasks
// queue at the scheduler and are only placed when a node's periodic
// heartbeat arrives (Hadoop default: 3 s), so every task sees queueing
// delay + up to one heartbeat of scheduling latency. Locality is handled
// with delay scheduling: a request holds out for a preferred node until it
// has waited `locality_delay`, then accepts any node.
//
// The queue is indexed so a heartbeat never walks it: each request gets a
// sequence number and sits in FIFO lists of (slot, seq) handles, one per
// node it prefers, plus one of location-free and one of located requests.
// A heartbeat takes from the fronts of its node's list and the
// location-free list, merged in sequence order, then from the front of the
// located list: exactly the grants a FIFO scan of the queue would make
// (docs/PERF.md §11).
//
// That NodeManager beat is the node's only heartbeat. A listener (the
// Testbed wires the NameNode-side FailureDetector) hears each delivered
// beat just before the scheduler does, so both liveness monitors read one
// stream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/job_liveness.h"
#include "cluster/node_manager.h"
#include "common/ids.h"
#include "common/units.h"
#include "net/control_plane.h"
#include "net/rpc.h"
#include "sim/periodic.h"
#include "sim/simulator.h"

namespace ignem {

struct ClusterConfig {
  std::size_t node_count = 8;   ///< The paper's testbed size (§IV-A).
  int slots_per_node = 10;      ///< ~2 waves of tasks per 6-core/12-thread box.
  Duration heartbeat_interval = Duration::seconds(3.0);  ///< Hadoop default.
  Duration locality_delay = Duration::seconds(3.0);
  /// Container launch overhead: binary shipping + JVM warm-up (§II-C1).
  Duration container_launch = Duration::seconds(1.0);
};

/// A granted container: the slot's node plus a unique id so a release after
/// the node was declared dead (and its slots purged) is a safe no-op.
struct ContainerGrant {
  std::uint64_t id = 0;
  NodeId node;
};

/// A request for one container, with locality preferences.
struct ContainerRequest {
  JobId job;
  std::vector<NodeId> preferred;  ///< Empty means "anywhere".
  std::function<void(const ContainerGrant&)> on_allocated;
  /// Optional: fired when the container's node is declared dead before the
  /// container was released — the owner should re-request elsewhere.
  std::function<void()> on_lost;
};

class ResourceManager : public JobLivenessOracle {
 public:
  ResourceManager(Simulator& sim, ClusterConfig config);

  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  /// Tracks a job for liveness queries. Must precede its container requests.
  void register_job(JobId job);
  void complete_job(JobId job);

  bool is_job_running(JobId job) const override;

  /// Queues a container request; `on_allocated` fires (with the chosen node)
  /// from a future heartbeat once a slot is found.
  void request_container(ContainerRequest request);

  /// Returns a container's slot. Visible to the scheduler at the node's next
  /// heartbeat, as in Hadoop. A grant already purged by failure detection
  /// (node declared dead) is a no-op.
  void release_container(const ContainerGrant& grant);

  /// True while `grant` is an active container: granted, and neither
  /// released nor lost (its node declared dead, or its launch RPC
  /// undeliverable; `on_lost` fired). A task attempt is its container, so
  /// the owner's continuations drop out once this turns false.
  bool holds(const ContainerGrant& grant) const {
    return active_.contains(grant.id);
  }

  /// Missed-heartbeat failure detection, one scan: declares dead each node
  /// silent for more than kLivenessTimeout, frees its slots, and fires
  /// `on_lost` for every container it ran, in container-id (grant) order.
  /// No grace window. The caller runs it every kLivenessCheckInterval (the
  /// Testbed, only with fault tolerance on, so fault-free runs schedule no
  /// extra events).
  void check_liveness();

  /// Hears every beat that reaches the control plane, just before the
  /// scheduler handles it. Null (the default) hears nothing.
  void set_heartbeat_listener(std::function<void(NodeId)> listener) {
    heartbeat_listener_ = std::move(listener);
  }

  /// Crash support: stops / restarts the node's heartbeat, so both the RM
  /// and the heartbeat listener see the silence (and the rejoin).
  void halt_heartbeat(NodeId node);
  void resume_heartbeat(NodeId node);

  /// Whether failure detection currently considers `node` dead.
  bool is_node_marked_dead(NodeId node) const {
    return !nodes_[static_cast<std::size_t>(node.value())]->alive();
  }

  const ClusterConfig& config() const { return config_; }
  NodeManager& node_manager(NodeId node);
  std::size_t pending_requests() const { return pending_; }

  /// Mean number of requests waiting, sampled at heartbeats (diagnostics).
  double mean_queue_length() const;

  /// Emits kJobRegister/kJobComplete and kContainerAllocate/Release.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Routes heartbeats (oneway: dropped across a cut, so both liveness
  /// monitors see real silence) and container-grant deliveries (reliable
  /// call: an undeliverable grant reclaims its slot and fires on_lost)
  /// through the control node. Null — the default — keeps the historical
  /// direct paths, event-for-event.
  void set_rpc_router(RpcRouter* router) { router_ = router; }

 private:
  void send_heartbeat(NodeId node);
  void on_heartbeat(NodeId node);
  /// A granted container whose launch RPC never reached the node: return
  /// the slot and let the owner re-request via on_lost.
  void reclaim_grant(const ContainerGrant& grant);
  void declare_node_dead(NodeId node);

  Simulator& sim_;
  ClusterConfig config_;
  TraceRecorder* trace_ = nullptr;
  RpcRouter* router_ = nullptr;
  std::vector<std::unique_ptr<NodeManager>> nodes_;
  // One per node, index == NodeId value; null while the node's heartbeat is
  // halted.
  std::vector<std::unique_ptr<PeriodicTask>> heartbeats_;
  std::function<void(NodeId)> heartbeat_listener_;

  struct QueuedRequest {
    ContainerRequest request;
    SimTime enqueued;
    std::uint64_t seq = 0;  ///< 0 while the slot is vacant.
  };
  /// A request's place in one index list. It goes stale (a tombstone) once
  /// the request is granted, since its slot no longer holds `seq`.
  struct QueueRef {
    std::uint32_t slot;
    std::uint64_t seq;
  };
  /// A FIFO of handles in sequence order, consumed from the front. A vector
  /// with a head index rather than a std::deque, which allocates ~600 B even
  /// when empty: there is one of these per node.
  struct RefFifo {
    std::vector<QueueRef> refs;
    std::size_t head = 0;

    bool empty() const { return head == refs.size(); }
    const QueueRef& front() const { return refs[head]; }
    QueueRef pop_front();
  };

  /// Pops tombstones off the front; true if a live handle remains.
  bool drop_dead_front(RefFifo& fifo);
  void enqueue(RefFifo& fifo, QueueRef ref);
  /// Hands the request in `ref` a slot on `node` and frees its queue slot.
  void grant(NodeManager& manager, NodeId node, QueueRef ref);

  std::vector<QueuedRequest> queued_;  // slab; a grant's slot is reused
  std::vector<std::uint32_t> vacant_;  // free slots of queued_
  std::vector<RefFifo> by_node_;       // index == NodeId value
  RefFifo location_free_;
  RefFifo located_;
  std::uint64_t next_seq_ = 1;
  std::size_t pending_ = 0;  // live requests
  std::unordered_set<JobId> running_jobs_;

  struct ActiveContainer {
    NodeId node;
    /// Fired once the launch overhead has passed; empty after that.
    std::function<void(const ContainerGrant&)> on_allocated;
    std::function<void()> on_lost;
  };
  std::unordered_map<std::uint64_t, ActiveContainer> active_;  // by grant id
  std::uint64_t next_container_ = 1;
  std::vector<SimTime> last_beat_;  // index == NodeId value

  std::uint64_t heartbeat_count_ = 0;
  std::uint64_t queue_length_accum_ = 0;
};

}  // namespace ignem
