#include "dfs/replication_manager.h"

#include <algorithm>

#include "common/check.h"

namespace ignem {

static_assert(sizeof(ReplicationStats) == 8 * sizeof(std::uint64_t),
              "name the new ReplicationStats field in "
              "ReplicationManager::add_counters");

void ReplicationManager::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["replication.blocks_scheduled"] += stats_.blocks_scheduled;
  counters["replication.blocks_repaired"] += stats_.blocks_repaired;
  counters["replication.blocks_unrepairable"] += stats_.blocks_unrepairable;
  counters["replication.corrupt_invalidated"] += stats_.corrupt_invalidated;
  counters["replication.repairs_throttled"] += stats_.repairs_throttled;
  counters["replication.excess_deleted"] += stats_.excess_deleted;
  counters["replication.repairs_discarded"] += stats_.repairs_discarded;
  counters["replication.bytes_repaired"] +=
      static_cast<std::uint64_t>(stats_.bytes_repaired);
}

ReplicationManager::ReplicationManager(Simulator& sim, NameNode& namenode,
                                       Network& network, Rng rng,
                                       int max_concurrent)
    : sim_(sim),
      namenode_(namenode),
      network_(network),
      rng_(rng),
      max_concurrent_(max_concurrent) {
  IGNEM_CHECK(max_concurrent >= 1);
}

void ReplicationManager::handle_node_failure(NodeId node,
                                             int target_replication) {
  target_replication_ = target_replication;
  if (namenode_.is_node_alive(node)) namenode_.set_node_alive(node, false);
  // The node's own replica table lists exactly the blocks the namespace
  // places on it (create_file, add_replica and invalidate_replica keep the
  // two in step), so repairs queue in ascending block id.
  for (const BlockId block : namenode_.datanode(node)->blocks_sorted()) {
    if (queued_.contains(block)) continue;
    const auto live = namenode_.live_locations(block);
    if (live.size() >= static_cast<std::size_t>(target_replication)) continue;
    queue_.push_back(block);
    queued_.insert(block);
    ++stats_.blocks_scheduled;
  }
  pump();
}

void ReplicationManager::handle_node_rejoin(NodeId node,
                                            int target_replication) {
  target_replication_ = target_replication;
  // The same walk: the rejoined node is never a victim, so invalidation
  // leaves its table alone.
  for (const BlockId block : namenode_.datanode(node)->blocks_sorted()) {
    while (true) {
      const auto live = namenode_.live_locations(block);
      if (live.size() <= static_cast<std::size_t>(target_replication_)) break;
      // Victim choice: never the rejoined node (the Ignem master is about
      // to reclaim its cached state), prefer copies nobody promoted into
      // memory, and break ties toward the larger node id — typically the
      // freshest repair copy.
      NodeId victim = NodeId::invalid();
      bool victim_promoted = false;
      for (const NodeId cand : live) {
        if (cand == node) continue;
        const bool promoted =
            namenode_.datanode(cand)->has_promoted_copy(block);
        if (!victim.valid() || (victim_promoted && !promoted) ||
            (victim_promoted == promoted && cand.value() > victim.value())) {
          victim = cand;
          victim_promoted = promoted;
        }
      }
      if (!victim.valid()) break;  // every excess copy is on the rejoined node
      const Bytes bytes = namenode_.block(block).size;
      if (trace_ != nullptr) {
        trace_->emit(TraceEventType::kExcessReplicaDeleted, victim, block,
                     JobId::invalid(), bytes);
      }
      namenode_.invalidate_replica(block, victim);
      ++stats_.excess_deleted;
    }
  }
}

void ReplicationManager::handle_corrupt_replica(BlockId block,
                                                int target_replication) {
  target_replication_ = target_replication;
  if (queued_.contains(block)) return;
  queue_.push_back(block);
  queued_.insert(block);
  ++stats_.blocks_scheduled;
  pump();
}

void ReplicationManager::pump() {
  // repair()'s synchronous exits call pump() again; without the guard a long
  // queue of already-healthy blocks recurses once per entry and overflows
  // the stack. Reentrant calls return and the outer loop keeps draining —
  // the queue stays FIFO either way, so the repair order is unchanged.
  if (pumping_) return;
  pumping_ = true;
  while (in_flight_ < max_concurrent_ && !queue_.empty()) {
    const BlockId block = queue_.front();
    queue_.pop_front();
    repair(block);
  }
  pumping_ = false;
}

void ReplicationManager::retry_later(BlockId block) {
  --in_flight_;
  sim_.schedule(kRetryDelay,
                [this, block] {
                  queue_.push_back(block);  // still in queued_: no duplicate
                  pump();
                },
                EventClass::kRetry);
  pump();
}

void ReplicationManager::repair(BlockId block) {
  // Re-check first: a node rejoin or an earlier repair may have restored
  // the factor while this block sat in the queue. Outstanding corrupt marks
  // keep the block in repair regardless — they must be invalidated.
  const std::vector<NodeId> corrupt = namenode_.corrupt_replicas(block);
  auto live = namenode_.live_locations(block);
  if (corrupt.empty() &&
      live.size() >= static_cast<std::size_t>(target_replication_)) {
    queued_.erase(block);
    pump();
    return;
  }
  // Source: a namespace-live replica whose process is actually up and can
  // serve the block (locked memory or a working disk) — an undetected
  // crash leaves a node in the namespace but unable to serve.
  std::vector<NodeId> sources;
  for (const NodeId node : live) {
    const DataNode* dn = namenode_.datanode(node);
    if (!dn->alive()) continue;
    if (!dn->has_promoted_copy(block) && !dn->disk_ok()) continue;
    sources.push_back(node);
  }
  if (sources.empty()) {
    // Every replica is gone or corrupt: data loss, nothing verified to copy
    // from. Corrupt marks stay — serving known-bad data is worse than
    // failing the read.
    ++stats_.blocks_unrepairable;
    queued_.erase(block);
    pump();
    return;
  }
  if (!corrupt.empty()) {
    // A verified good copy exists, so the corrupt replicas are garbage:
    // delete them now (HDFS invalidates corrupt replicas once a healthy one
    // is known), freeing their nodes to serve as repair targets.
    for (const NodeId node : corrupt) {
      namenode_.invalidate_replica(block, node);
      ++stats_.corrupt_invalidated;
    }
    live = namenode_.live_locations(block);
    if (live.size() >= static_cast<std::size_t>(target_replication_)) {
      queued_.erase(block);
      pump();
      return;
    }
  }
  const NodeId source = sources.front();
  // Target: a live, working node that holds no replica of the block —
  // including dead and corrupt-marked holders, which are absent from `live`
  // but still in the namespace — and that the source can currently reach
  // (a partitioned target would stall the copy forever). Chosen uniformly
  // for load spreading.
  const auto& replicas = namenode_.block(block).replicas;
  std::vector<NodeId> candidates;
  for (const NodeId node : namenode_.live_nodes()) {
    if (std::find(replicas.begin(), replicas.end(), node) != replicas.end()) {
      continue;
    }
    const DataNode* dn = namenode_.datanode(node);
    if (!dn->alive() || !dn->disk_ok()) continue;
    if (!network_.reachable(source, node)) continue;
    candidates.push_back(node);
  }
  if (candidates.empty()) {
    ++stats_.blocks_unrepairable;
    queued_.erase(block);
    pump();
    return;
  }
  if (namenode_.rack_count() > 1) {
    // Rack-aware repair: when every surviving replica sits in one rack,
    // restrict the draw to off-rack targets (if any) so a rack failure
    // cannot take out all copies again. Single-rack clusters never enter
    // this branch, keeping their RNG draw sequence unchanged.
    const int first_rack = namenode_.rack_of(live.front());
    bool all_one_rack = true;
    for (const NodeId n : live) {
      if (namenode_.rack_of(n) != first_rack) {
        all_one_rack = false;
        break;
      }
    }
    if (all_one_rack) {
      std::vector<NodeId> off_rack;
      for (const NodeId n : candidates) {
        if (namenode_.rack_of(n) != first_rack) off_rack.push_back(n);
      }
      if (!off_rack.empty()) candidates = std::move(off_rack);
    }
  }
  const NodeId target = candidates[static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(candidates.size()) - 1))];
  const Bytes bytes = namenode_.block(block).size;

  ++in_flight_;
  if (limiter_ != nullptr) {
    // Storm control: reserve the copy's bytes against the repair budget.
    // The concurrency slot is held through the wait, so a throttled RM
    // also naturally stops pulling new work off the queue.
    const Duration wait = limiter_->reserve(bytes, sim_.now());
    if (wait > Duration::zero()) {
      ++stats_.repairs_throttled;
      sim_.schedule(
          wait,
          [this, block, source, target, bytes] {
            start_copy(block, source, target, bytes);
          },
          EventClass::kRetry);
      return;
    }
  }
  start_copy(block, source, target, bytes);
}

void ReplicationManager::start_copy(BlockId block, NodeId source,
                                    NodeId target, Bytes bytes) {
  if (router_ == nullptr) {
    do_start_copy(block, source, target, bytes);
    return;
  }
  // Routed: the repair order is a control RPC NameNode -> source. While
  // the control link is cut the order cannot land; the block requeues and
  // repair resumes once a later attempt finds the cut healed.
  router_->call(
      router_->control_node(), source,
      [this, block, source, target, bytes] {
        do_start_copy(block, source, target, bytes);
      },
      [this, block](RpcOutcome) { retry_later(block); });
}

void ReplicationManager::do_start_copy(BlockId block, NodeId source,
                                       NodeId target, Bytes bytes) {
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kRepairStart, source, block,
                 JobId::invalid(), bytes, target.value());
  }
  // Read from the surviving replica's disk, ship over the network, write on
  // the target — the normal repair pipeline, contending with foreground IO.
  namenode_.datanode(source)->read_block(
      block, bytes, JobId::invalid(),
      [this, block, source, target, bytes](const BlockReadResult& read) {
        if (read.failed || read.corrupt) {
          // Source crashed mid-read, or its checksum pass just exposed
          // latent rot (the report already marked it, so the next attempt
          // picks a different source).
          retry_later(block);
          return;
        }
        network_.transfer(
            source, target, bytes,
            [this, block, target, bytes] {
          DataNode* dn = namenode_.datanode(target);
          if (!namenode_.is_node_alive(target) || !dn->disk_ok()) {
            retry_later(block);  // target died mid-copy
            return;
          }
          dn->write(bytes, [this, block, target, bytes] {
            DataNode* dn = namenode_.datanode(target);
            if (!namenode_.is_node_alive(target) || !dn->disk_ok()) {
              retry_later(block);  // target died during the write
              return;
            }
            if (namenode_.live_locations(block).size() >=
                static_cast<std::size_t>(target_replication_)) {
              // A rejoin restored the factor while this copy was in flight.
              // Registering it would leave the block over-replicated with no
              // later trigger to trim it, so the fresh copy is discarded.
              ++stats_.repairs_discarded;
              queued_.erase(block);
              --in_flight_;
              pump();
              return;
            }
            namenode_.add_replica(block, target);
            ++stats_.blocks_repaired;
            stats_.bytes_repaired += bytes;
            if (namenode_.live_locations(block).size() <
                static_cast<std::size_t>(target_replication_)) {
              // Still short (several replicas were lost or invalidated):
              // keep the block in repair for another round.
              queue_.push_back(block);
            } else {
              queued_.erase(block);
            }
            --in_flight_;
            if (trace_ != nullptr) {
              trace_->emit(TraceEventType::kRepairComplete, target, block,
                           JobId::invalid(), bytes);
            }
            pump();
          });
            },
            [this, block] {
              // The copy crossed a fresh partition cut and was severed:
              // its bytes are refunded, the repair retries on a new
              // source/target pair after the heal or around the cut.
              retry_later(block);
            });
      });
}

}  // namespace ignem
