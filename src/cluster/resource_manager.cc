#include "cluster/resource_manager.h"

#include <algorithm>

#include "common/check.h"

namespace ignem {

ResourceManager::ResourceManager(Simulator& sim, ClusterConfig config)
    : sim_(sim), config_(config) {
  IGNEM_CHECK(config_.node_count > 0);
  nodes_.reserve(config_.node_count);
  heartbeats_.reserve(config_.node_count);
  last_beat_.resize(config_.node_count, SimTime::zero());
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
  queue_.push_back(QueuedRequest{std::move(request), sim_.now()});
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
  heartbeats_[static_cast<std::size_t>(node.value())].reset();
}

void ResourceManager::resume_heartbeat(NodeId node) {
  IGNEM_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value()) < config_.node_count);
  heartbeats_[static_cast<std::size_t>(node.value())] =
      std::make_unique<PeriodicTask>(
          sim_, config_.heartbeat_interval, config_.heartbeat_interval,
          [this, node] { send_heartbeat(node); });
}

void ResourceManager::send_heartbeat(NodeId node) {
  if (router_ == nullptr) {
    on_heartbeat(node);
    return;
  }
  // Routed: the beat is a datagram from the NodeManager to the control
  // node. A partition drops it on the floor, so both liveness monitors see
  // genuine silence instead of the Testbed having to suppress the task.
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

void ResourceManager::check_liveness() {
  const SimTime now = sim_.now();
  for (std::size_t i = 0; i < last_beat_.size(); ++i) {
    if (!nodes_[i]->alive()) continue;  // declared dead, not rejoined
    if (now - last_beat_[i] > kLivenessTimeout) {
      declare_node_dead(NodeId(static_cast<std::int64_t>(i)));
    }
  }
}

void ResourceManager::declare_node_dead(NodeId node) {
  NodeManager& manager = node_manager(node);
  manager.set_alive(false);
  manager.reset_slots();
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kFaultDetectedDead, node, BlockId::invalid(),
                 JobId::invalid(), 0, /*detail=*/1);  // 1 = ResourceManager
  }
  // Purge the node's containers and let their owners re-request elsewhere.
  std::vector<std::function<void()>> lost;
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.node == node) {
      if (it->second.on_lost != nullptr) {
        lost.push_back(std::move(it->second.on_lost));
      }
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& cb : lost) cb();
}

NodeManager& ResourceManager::node_manager(NodeId node) {
  IGNEM_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value()) < nodes_.size());
  return *nodes_[static_cast<std::size_t>(node.value())];
}

bool ResourceManager::prefers(const ContainerRequest& request,
                              NodeId node) const {
  if (request.preferred.empty()) return true;
  return std::find(request.preferred.begin(), request.preferred.end(), node) !=
         request.preferred.end();
}

void ResourceManager::on_heartbeat(NodeId node) {
  // The NameNode side hears the beat first: a node readmitted after a halt
  // rejoins the namespace before it gets slots back.
  if (heartbeat_listener_ != nullptr) heartbeat_listener_(node);
  ++heartbeat_count_;
  queue_length_accum_ += queue_.size();
  last_beat_[static_cast<std::size_t>(node.value())] = sim_.now();
  NodeManager& manager = node_manager(node);
  if (!manager.alive()) {
    // A beat from a declared-dead node: it restarted (or was only silenced
    // by a heartbeat delay). Readmit it with a clean slate of slots.
    manager.set_alive(true);
    manager.reset_slots();
    if (trace_ != nullptr) {
      trace_->emit(TraceEventType::kRecoverNodeRejoin, node,
                   BlockId::invalid(), JobId::invalid(), 0, /*detail=*/1);
    }
  }

  // A node only takes its fair share of location-free requests per
  // heartbeat, so e.g. a reduce wave spreads across the cluster instead of
  // piling onto whichever node beats first (YARN's round-robin offers).
  std::size_t unpreferred_budget = std::max<std::size_t>(
      1, (queue_.size() + config_.node_count - 1) / config_.node_count);

  // Two passes over the FIFO: first requests that prefer this node, then —
  // delay scheduling — requests that have outwaited the locality delay.
  for (const bool locality_pass : {true, false}) {
    auto it = queue_.begin();
    while (it != queue_.end() && manager.free_slots() > 0) {
      const bool unpreferred = it->request.preferred.empty();
      // The fair-share budget binds location-free requests in both passes;
      // the delay-scheduling relaxation only waives *locality*, it is not a
      // license for one node to drain the whole queue.
      const bool budget_ok = !unpreferred || unpreferred_budget > 0;
      const bool eligible =
          locality_pass
              ? prefers(it->request, node) && budget_ok
              : sim_.now() - it->enqueued >= config_.locality_delay &&
                    budget_ok;
      if (!eligible) {
        ++it;
        continue;
      }
      if (unpreferred) --unpreferred_budget;
      manager.allocate();
      if (trace_ != nullptr) {
        trace_->emit(TraceEventType::kContainerAllocate, node,
                     BlockId::invalid(), it->request.job);
      }
      const ContainerGrant grant{next_container_++, node};
      active_.emplace(grant.id, ActiveContainer{node, it->request.job,
                                                std::move(it->request.on_lost)});
      auto on_allocated = std::move(it->request.on_allocated);
      it = queue_.erase(it);
      // Container launch overhead (binary shipping + JVM warm-up) before the
      // task code runs. If the node is declared dead before launch finishes
      // the grant is purged and the callback never fires (on_lost already
      // re-requested).
      auto launch = [this, cb = std::move(on_allocated), grant]() {
        sim_.schedule(config_.container_launch, [this, cb, grant] {
          if (!active_.contains(grant.id)) return;
          cb(grant);
        });
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
    if (manager.free_slots() == 0) break;
  }
}

double ResourceManager::mean_queue_length() const {
  if (heartbeat_count_ == 0) return 0.0;
  return static_cast<double>(queue_length_accum_) /
         static_cast<double>(heartbeat_count_);
}

}  // namespace ignem
