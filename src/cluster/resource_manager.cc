#include "cluster/resource_manager.h"

#include <algorithm>

#include "common/check.h"
#include "common/small_function.h"

namespace ignem {

ResourceManager::ResourceManager(Simulator& sim, ClusterConfig config)
    : sim_(sim), config_(config) {
  IGNEM_CHECK(config_.node_count > 0);
  nodes_.reserve(config_.node_count);
  heartbeats_.reserve(config_.node_count);
  silencers_.resize(config_.node_count, 0);
  by_node_.resize(config_.node_count);
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    const NodeId id(static_cast<std::int64_t>(i));
    nodes_.push_back(std::make_unique<NodeManager>(id, config_.slots_per_node));
    // Stagger heartbeats uniformly across the interval, as real clusters
    // naturally do: node i's first beat lands at (i+1)/n of one interval.
    const Duration offset =
        config_.heartbeat_interval *
        (static_cast<double>(i + 1) / static_cast<double>(config_.node_count));
    heartbeats_.push_back(std::make_unique<PeriodicTask>(
        sim_, offset, config_.heartbeat_interval,
        [this, id] { send_heartbeat(id); }));
  }
}

void ResourceManager::register_job(JobId job) {
  IGNEM_CHECK(job.valid());
  running_jobs_.insert(job);
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kJobRegister, NodeId::invalid(),
                 BlockId::invalid(), job);
  }
}

void ResourceManager::complete_job(JobId job) {
  running_jobs_.erase(job);
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kJobComplete, NodeId::invalid(),
                 BlockId::invalid(), job);
  }
}

bool ResourceManager::is_job_running(JobId job) const {
  return running_jobs_.contains(job);
}

void ResourceManager::request_container(ContainerRequest request) {
  IGNEM_CHECK(request.on_allocated != nullptr);
  std::uint32_t slot = 0;
  if (vacant_.empty()) {
    slot = static_cast<std::uint32_t>(queued_.size());
    queued_.emplace_back();
  } else {
    slot = vacant_.back();
    vacant_.pop_back();
  }
  const QueueRef ref{slot, next_seq_++};
  if (request.preferred.empty()) {
    enqueue(location_free_, ref);
  } else {
    enqueue(located_, ref);
    // A node named twice gets two handles; the second is a tombstone by the
    // time it reaches the front. A node outside the cluster never beats, so
    // such a preference only ever matters to the delay pass.
    for (const NodeId node : request.preferred) {
      if (node.valid() &&
          static_cast<std::size_t>(node.value()) < config_.node_count) {
        enqueue(by_node_[static_cast<std::size_t>(node.value())], ref);
      }
    }
  }
  queued_[slot] = QueuedRequest{std::move(request), sim_.now(), ref.seq};
  ++pending_;
}

ResourceManager::QueueRef ResourceManager::RefFifo::pop_front() {
  const QueueRef ref = refs[head++];
  if (head == refs.size()) {
    refs.clear();
    head = 0;
  } else if (2 * head >= refs.size()) {
    // Moves at most as many handles as were popped since the last shift.
    refs.erase(refs.begin(), refs.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  return ref;
}

bool ResourceManager::drop_dead_front(RefFifo& fifo) {
  while (!fifo.empty() && queued_[fifo.front().slot].seq != fifo.front().seq) {
    fifo.pop_front();
  }
  return !fifo.empty();
}

void ResourceManager::enqueue(RefFifo& fifo, QueueRef ref) {
  // A node whose heartbeat is halted never pops its list, so tombstones
  // are dropped here too.
  drop_dead_front(fifo);
  fifo.refs.push_back(ref);
}

void ResourceManager::release_container(const ContainerGrant& grant) {
  if (active_.erase(grant.id) == 0) return;  // purged when node declared dead
  node_manager(grant.node).release();
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kContainerRelease, grant.node);
  }
}

void ResourceManager::halt_heartbeat(NodeId node) {
  IGNEM_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value()) < config_.node_count);
  const auto i = static_cast<std::size_t>(node.value());
  if (silencers_[i]++ == 0) heartbeats_[i].reset();
}

void ResourceManager::resume_heartbeat(NodeId node) {
  IGNEM_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value()) < config_.node_count);
  const auto i = static_cast<std::size_t>(node.value());
  IGNEM_CHECK_MSG(silencers_[i] > 0, "resume_heartbeat: node "
                                         << node.value() << " is not halted");
  if (--silencers_[i] > 0) return;  // another silencer still holds it
  heartbeats_[i] = std::make_unique<PeriodicTask>(
      sim_, config_.heartbeat_interval, config_.heartbeat_interval,
      [this, node] { send_heartbeat(node); });
}

void ResourceManager::send_heartbeat(NodeId node) {
  if (router_ == nullptr) {
    on_heartbeat(node);
    return;
  }
  // Routed: the beat is a datagram from the NodeManager to the control
  // node. A partition drops it on the floor, so the failure detector sees
  // genuine silence instead of the Testbed having to halt the beat.
  router_->oneway(node, router_->control_node(),
                  [this, node] { on_heartbeat(node); });
}

void ResourceManager::reclaim_grant(const ContainerGrant& grant) {
  const auto it = active_.find(grant.id);
  if (it == active_.end()) return;  // node declared dead meanwhile: purged
  auto on_lost = std::move(it->second.on_lost);
  active_.erase(it);
  node_manager(grant.node).release();
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kContainerRelease, grant.node);
  }
  if (on_lost != nullptr) on_lost();
}

void ResourceManager::declare_node_dead(NodeId node) {
  NodeManager& manager = node_manager(node);
  manager.set_alive(false);
  manager.reset_slots();
  // Purge the node's containers and let their owners re-request elsewhere,
  // in grant order.
  std::vector<std::pair<std::uint64_t, std::function<void()>>> lost;
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.node == node) {
      if (it->second.on_lost != nullptr) {
        lost.emplace_back(it->first, std::move(it->second.on_lost));
      }
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(lost.begin(), lost.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [id, cb] : lost) cb();
}

void ResourceManager::readmit_node(NodeId node) {
  NodeManager& manager = node_manager(node);
  IGNEM_CHECK_MSG(!manager.alive(), "readmit_node: node "
                                        << node.value() << " is not dead");
  manager.set_alive(true);
  manager.reset_slots();
}

NodeManager& ResourceManager::node_manager(NodeId node) {
  IGNEM_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value()) < nodes_.size());
  return *nodes_[static_cast<std::size_t>(node.value())];
}

void ResourceManager::on_heartbeat(NodeId node) {
  // The failure detector hears the beat first: a node declared dead
  // rejoins (readmit_node) before the scheduler offers its slots.
  if (heartbeat_listener_ != nullptr) heartbeat_listener_(node);
  ++heartbeat_count_;
  queue_length_accum_ += pending_;
  NodeManager& manager = node_manager(node);

  // A node only takes its fair share of location-free requests per
  // heartbeat, so e.g. a reduce wave spreads across the cluster instead of
  // piling onto whichever node beats first (YARN's round-robin offers).
  std::size_t unpreferred_budget = std::max<std::size_t>(
      1, (pending_ + config_.node_count - 1) / config_.node_count);

  // Locality pass: the requests that prefer this node and, while the
  // budget lasts, location-free ones, merged by sequence number: the order
  // a FIFO scan meets them in. Every request in either list is eligible, so
  // the pass grants from the fronts until slots or candidates run out.
  RefFifo& preferring = by_node_[static_cast<std::size_t>(node.value())];
  while (manager.free_slots() > 0) {
    const bool has_preferring = drop_dead_front(preferring);
    const bool has_free =
        unpreferred_budget > 0 && drop_dead_front(location_free_);
    if (!has_preferring && !has_free) break;
    if (has_free && (!has_preferring || location_free_.front().seq <
                                            preferring.front().seq)) {
      --unpreferred_budget;
      grant(manager, node, location_free_.pop_front());
    } else {
      grant(manager, node, preferring.pop_front());
    }
  }
  // Delay scheduling: located requests that have outwaited the locality
  // delay. Enqueue times rise with the sequence number, so those are a
  // prefix of the list. The budget binds here too (waiving locality is no
  // license to drain the queue), and it leaves this pass no location-free
  // request: the locality pass stops early only when the slots run out,
  // and otherwise drains the location-free list or the budget.
  while (manager.free_slots() > 0 && drop_dead_front(located_) &&
         sim_.now() - queued_[located_.front().slot].enqueued >=
             config_.locality_delay) {
    grant(manager, node, located_.pop_front());
  }
}

void ResourceManager::grant(NodeManager& manager, NodeId node, QueueRef ref) {
  QueuedRequest& queued = queued_[ref.slot];
  manager.allocate();
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kContainerAllocate, node, BlockId::invalid(),
                 queued.request.job);
  }
  const ContainerGrant grant{next_container_++, node};
  active_.emplace(grant.id,
                  ActiveContainer{node, std::move(queued.request.on_allocated),
                                  std::move(queued.request.on_lost)});
  queued.seq = 0;  // every handle to this request is now a tombstone
  vacant_.push_back(ref.slot);
  --pending_;
  // Container launch overhead (binary shipping + JVM warm-up) before the
  // task code runs. If the node is declared dead before launch finishes
  // the grant is purged and the callback never fires (on_lost already
  // re-requested).
  auto start = [this, grant] {
    const auto it = active_.find(grant.id);
    if (it == active_.end()) return;
    auto on_allocated = std::move(it->second.on_allocated);
    on_allocated(grant);
  };
  static_assert(sizeof(start) <= SmallFunction::kInlineBytes,
                "the launch event must not spill out of SmallFunction");
  auto launch = [this, start] {
    sim_.schedule(config_.container_launch, start);
  };
  if (router_ == nullptr) {
    launch();
  } else {
    // Routed: the grant travels control node -> slave. When the RPC
    // cannot land before the deadline (the slave's rack is cut off),
    // the slot is reclaimed so the owner re-requests elsewhere instead
    // of waiting on a container that will never start.
    router_->call(router_->control_node(), grant.node, std::move(launch),
                  [this, grant](RpcOutcome) { reclaim_grant(grant); });
  }
}

double ResourceManager::mean_queue_length() const {
  if (heartbeat_count_ == 0) return 0.0;
  return static_cast<double>(queue_length_accum_) /
         static_cast<double>(heartbeat_count_);
}

}  // namespace ignem
