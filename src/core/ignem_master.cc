#include "core/ignem_master.h"

#include <algorithm>

#include "common/check.h"

namespace ignem {

IgnemMaster::IgnemMaster(Simulator& sim, NameNode& namenode,
                         const IgnemConfig& config, Rng rng)
    : sim_(sim), namenode_(namenode), config_(config), rng_(rng) {}

void IgnemMaster::register_slave(IgnemSlave* slave) {
  IGNEM_CHECK(slave != nullptr);
  IGNEM_CHECK_MSG(
      slave->node().value() == static_cast<std::int64_t>(slaves_.size()),
      "slaves must register in NodeId order");
  slaves_.push_back(slave);
}

void IgnemMaster::request(const MigrationRequest& request) {
  if (failed_) return;  // clients retry against the restarted master
  // Client -> master RPC.
  sim_.schedule(kRpcLatency,
                [this, request] {
                  if (!failed_) process(request);
                },
                EventClass::kRpc);
}

void IgnemMaster::process(const MigrationRequest& request) {
  ++stats_.requests;
  if (trace_ != nullptr) {
    trace_->emit(request.op == MigrationOp::kMigrate
                     ? TraceEventType::kMigrateRequest
                     : TraceEventType::kEvictRequest,
                 NodeId::invalid(), BlockId::invalid(), request.job,
                 request.job_input_bytes,
                 static_cast<std::int64_t>(request.files.size()));
  }
  switch (request.op) {
    case MigrationOp::kMigrate:
      do_migrate(request);
      break;
    case MigrationOp::kEvict:
      do_evict(request);
      break;
  }
}

void IgnemMaster::do_migrate(const MigrationRequest& request) {
  job_info_[request.job] = request.job_input_bytes;
  // Build one batch per slave so each slave costs a single RPC (§III-A6).
  std::map<NodeId, std::vector<PendingMigration>> batches;
  for (const FileId file : request.files) {
    for (const BlockId block_id : namenode_.file(file).blocks) {
      std::vector<NodeId> locations = namenode_.live_locations(block_id);
      if (locations.empty()) continue;  // wholly failed block; nothing to do
      // Randomly choose replicas_to_migrate distinct replicas; the paper's
      // design (§III-A2) migrates exactly one.
      const std::size_t count =
          std::min<std::size_t>(locations.size(),
                                static_cast<std::size_t>(std::max(
                                    1, config_.replicas_to_migrate)));
      for (std::size_t i = 0; i < count; ++i) {
        const auto j = static_cast<std::size_t>(rng_.uniform_int(
            static_cast<std::int64_t>(i),
            static_cast<std::int64_t>(locations.size()) - 1));
        std::swap(locations[i], locations[j]);
      }
      for (std::size_t i = 0; i < count; ++i) {
        const NodeId target = locations[i];
        PendingMigration command;
        command.block = block_id;
        command.bytes = namenode_.block(block_id).size;
        command.job = request.job;
        command.job_input_bytes = request.job_input_bytes;
        batches[target].push_back(command);
        ++stats_.migrate_commands;
      }
      chosen_[{request.job, block_id}] =
          std::vector<NodeId>(locations.begin(),
                              locations.begin() + static_cast<std::ptrdiff_t>(count));
    }
  }
  send_migrate_batches(batches);
}

void IgnemMaster::do_evict(const MigrationRequest& request) {
  std::map<NodeId, std::vector<BlockId>> batches;
  for (const FileId file : request.files) {
    for (const BlockId block_id : namenode_.file(file).blocks) {
      retries_.erase({request.job, block_id});
      const auto it = chosen_.find({request.job, block_id});
      if (it == chosen_.end()) continue;  // unknown (e.g. post-restart)
      for (const NodeId node : it->second) {
        batches[node].push_back(block_id);
        ++stats_.evict_commands;
      }
      chosen_.erase(it);
    }
  }
  job_info_.erase(request.job);
  for (auto& [node, blocks] : batches) {
    ++stats_.batches_sent;
    send_evict_batch(node, request.job, std::move(blocks));
  }
}

void IgnemMaster::send_evict_batch(NodeId node, JobId job,
                                   std::vector<BlockId> blocks) {
  auto deliver = [this, node, job, blocks] {
    if (failed_) return;
    slaves_[static_cast<std::size_t>(node.value())]->handle_evict_batch(
        job, blocks);
  };
  if (router_ == nullptr) {
    sim_.schedule(kRpcLatency, std::move(deliver), EventClass::kRpc);
    return;
  }
  router_->call(
      router_->control_node(), node, std::move(deliver),
      [this, node, job, blocks = std::move(blocks)](RpcOutcome) mutable {
        // Unlike a dropped migrate, a dropped evict leaks locked bytes for
        // as long as the slave process lives: keep re-sending after the
        // backoff cap until a heal lets one through. A dead process took
        // its locked memory with it, so retrying stops there (rejoin
        // reconciliation covers a later restart).
        const DataNode* dn = namenode_.datanode(node);
        if (dn == nullptr || !dn->alive()) return;
        ++stats_.rpc_evict_retries;
        sim_.schedule(kRetryBackoffCap,
                      [this, node, job, blocks = std::move(blocks)]() mutable {
                        if (failed_) return;
                        send_evict_batch(node, job, std::move(blocks));
                      },
                      EventClass::kRetry);
      });
}

void IgnemMaster::fail() {
  failed_ = true;
  chosen_.clear();
  job_info_.clear();
  retries_.clear();
  for (IgnemSlave* slave : slaves_) slave->on_master_failure();
}

void IgnemMaster::restart() { failed_ = false; }

bool IgnemMaster::reroute_away(
    const std::pair<JobId, BlockId>& key, std::vector<NodeId>& targets,
    NodeId away, std::map<NodeId, std::vector<PendingMigration>>& batches) {
  const auto pos = std::find(targets.begin(), targets.end(), away);
  if (pos == targets.end()) return false;
  targets.erase(pos);
  const auto [job, block] = key;
  const int attempt = ++retries_[key];
  NodeId replacement = NodeId::invalid();
  if (attempt <= kMaxMigrationRetries) {
    // A surviving replica not already chosen, whose process and disk are
    // actually up (the namespace may still list undetected crashes).
    // live_locations also excludes corrupt-marked replicas.
    for (const NodeId cand : namenode_.live_locations(block)) {
      if (std::find(targets.begin(), targets.end(), cand) != targets.end()) {
        continue;
      }
      const DataNode* dn = namenode_.datanode(cand);
      if (!dn->alive() || !dn->disk_ok()) continue;
      replacement = cand;
      break;
    }
  }
  const auto info = job_info_.find(job);
  if (!replacement.valid() || info == job_info_.end()) {
    // Out of retries or replicas (or the job already finished): drop.
    return targets.empty();
  }
  const Duration backoff =
      std::min(kRetryBackoffBase *
                   static_cast<double>(std::int64_t{1} << (attempt - 1)),
               kRetryBackoffCap);
  PendingMigration command;
  command.block = block;
  command.bytes = namenode_.block(block).size;
  command.job = job;
  command.job_input_bytes = info->second;
  command.not_before = sim_.now() + backoff;
  batches[replacement].push_back(command);
  targets.push_back(replacement);
  ++stats_.migrate_commands;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kMigrationRetry, replacement, block, job,
                 command.bytes, attempt);
  }
  return false;
}

void IgnemMaster::send_migrate_batches(
    std::map<NodeId, std::vector<PendingMigration>>& batches) {
  for (auto& [target, batch] : batches) {
    ++stats_.batches_sent;
    auto deliver = [this, target, batch = std::move(batch)] {
      if (failed_) return;
      slaves_[static_cast<std::size_t>(target.value())]
          ->handle_migrate_batch(batch);
    };
    if (router_ == nullptr) {
      sim_.schedule(kRpcLatency, std::move(deliver), EventClass::kRpc);
      continue;
    }
    // Routed: a cut that outlives the deadline+retry budget drops the
    // batch. Migration is best-effort acceleration — the job still reads
    // from disk — so dropping beats queueing stale commands (§III-A5).
    router_->call(router_->control_node(), target, std::move(deliver),
                  [this](RpcOutcome) { ++stats_.rpc_batches_lost; });
  }
}

void IgnemMaster::on_node_failure(NodeId node) {
  if (failed_) return;
  std::map<NodeId, std::vector<PendingMigration>> batches;
  for (auto it = chosen_.begin(); it != chosen_.end();) {
    if (reroute_away(it->first, it->second, node, batches)) {
      it = chosen_.erase(it);
    } else {
      ++it;
    }
  }
  send_migrate_batches(batches);
}

void IgnemMaster::on_replica_corrupt(BlockId block, NodeId node) {
  if (failed_) return;
  std::map<NodeId, std::vector<PendingMigration>> batches;
  for (auto it = chosen_.begin(); it != chosen_.end();) {
    if (it->first.second == block &&
        reroute_away(it->first, it->second, node, batches)) {
      it = chosen_.erase(it);
    } else {
      ++it;
    }
  }
  send_migrate_batches(batches);
}

void IgnemMaster::on_node_rejoin(NodeId node) {
  if (failed_) return;
  // One RPC exchange: the slave reports its tracked references, the master
  // reconciles, and eviction orders for the stale ones ride the reply.
  auto exchange = [this, node] {
        if (failed_) return;
        IgnemSlave* slave = slaves_[static_cast<std::size_t>(node.value())];
        std::map<JobId, std::vector<BlockId>> evict;
        for (const auto& [block, job] : slave->tracked_references()) {
          const auto it = chosen_.find({job, block});
          if (it != chosen_.end() &&
              std::find(it->second.begin(), it->second.end(), node) !=
                  it->second.end()) {
            // Still the chosen target: the cached copy is simply back.
            ++stats_.rejoin_reclaimed;
            continue;
          }
          if (job_info_.contains(job)) {
            // The job is live but the master rerouted (or dropped) this
            // migration during the outage. Re-adopt the surviving copy so
            // the job-end evict RPC reaches it — an extra cached replica
            // beats a leaked one.
            chosen_[{job, block}].push_back(node);
            ++stats_.rejoin_reclaimed;
            continue;
          }
          // The job finished or was forgotten while the node was out; its
          // references would pin memory forever.
          evict[job].push_back(block);
          ++stats_.rejoin_purged;
        }
        for (const auto& [job, blocks] : evict) {
          slave->handle_evict_batch(job, blocks);
        }
  };
  if (router_ == nullptr) {
    sim_.schedule(kRpcLatency, std::move(exchange), EventClass::kRpc);
    return;
  }
  // Routed: the block report travels slave -> control node. A drop is
  // benign — the node typically rejoins *because* the cut healed, and a
  // still-partitioned rejoin will be reported again at the next one.
  router_->call(node, router_->control_node(), std::move(exchange),
                [this](RpcOutcome) { ++stats_.rpc_batches_lost; });
}

NodeId IgnemMaster::chosen_replica(JobId job, BlockId block) const {
  const auto it = chosen_.find({job, block});
  if (it == chosen_.end() || it->second.empty()) return NodeId::invalid();
  return it->second.front();
}

static_assert(sizeof(MasterStats) == 8 * sizeof(std::uint64_t),
              "name the new MasterStats field in IgnemMaster::add_counters");

void IgnemMaster::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["ignem.master.requests"] += stats_.requests;
  counters["ignem.master.migrate_commands"] += stats_.migrate_commands;
  counters["ignem.master.evict_commands"] += stats_.evict_commands;
  counters["ignem.master.batches_sent"] += stats_.batches_sent;
  counters["ignem.master.rejoin_reclaimed"] += stats_.rejoin_reclaimed;
  counters["ignem.master.rejoin_purged"] += stats_.rejoin_purged;
  if (router_ != nullptr) {
    counters["ignem.master.rpc_batches_lost"] += stats_.rpc_batches_lost;
    counters["ignem.master.rpc_evict_retries"] += stats_.rpc_evict_retries;
  }
}

}  // namespace ignem
