#include "core/testbed.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace ignem {

const char* run_mode_name(RunMode mode) {
  switch (mode) {
    case RunMode::kHdfs: return "HDFS";
    case RunMode::kHdfsInputsInRam: return "HDFS-Inputs-in-RAM";
    case RunMode::kIgnem: return "Ignem";
    case RunMode::kInstantMigration: return "Instant-Migration";
    case RunMode::kHotDataPromotion: return "Hot-Data-Promotion";
  }
  return "?";
}

Testbed::Testbed(TestbedConfig config)
    : config_(config), rng_(config.seed) {
  const std::size_t n = config_.cluster.node_count;
  IGNEM_CHECK(n > 0);

  if (config_.enable_trace || config_.check_invariants) {
    trace_ = std::make_unique<TraceRecorder>();
    trace_->set_clock([this] { return sim_.now(); });
    if (config_.check_invariants) {
      checker_ = std::make_unique<InvariantChecker>();
      trace_->add_observer(checker_.get());
    }
  }

  namenode_ = std::make_unique<NameNode>(rng_.fork(1), config_.replication,
                                         config_.block_size,
                                         config_.rack_count);
  namenode_->set_trace(trace_.get());
  for (std::size_t i = 0; i < n; ++i) {
    datanodes_.push_back(std::make_unique<DataNode>(
        sim_, NodeId(static_cast<std::int64_t>(i)), primary_profile(),
        config_.cache_capacity_per_node, rng_.fork(100 + i)));
    datanodes_.back()->set_trace(trace_.get());
    namenode_->register_datanode(datanodes_.back().get());
  }

  // config_.rack_count is the single source of rack truth: the NameNode's
  // placement, the repair targeting, and rack partitions must agree on who
  // is off-rack.
  network_ = std::make_unique<Network>(sim_, n, NetworkProfile{},
                                       config_.rack_count);
  network_->set_trace(trace_.get());
  if (config_.routed_control_plane) {
    rpc_router_ = std::make_unique<RpcRouter>(sim_, *network_, RpcConfig{});
    rpc_router_->set_trace(trace_.get());
  }
  hb_suppress_depth_.assign(n, 0);
  rm_ = std::make_unique<ResourceManager>(sim_, config_.cluster);
  if (config_.fault_tolerance) {
    // One scan runs both liveness monitors: the RM's (no grace), then the
    // NameNode side's (suspicion, false-dead accounting, recovery hooks).
    // Created before every other periodic task, so that at an instant they
    // share, liveness is checked before samplers and scrub ticks run.
    liveness_scan_ = std::make_unique<PeriodicTask>(
        sim_, kLivenessCheckInterval, [this] {
          rm_->check_liveness();
          detector_->check();
        });
  }
  rm_->set_trace(trace_.get());
  rm_->set_rpc_router(rpc_router_.get());
  dfs_ = std::make_unique<DfsClient>(sim_, *namenode_, *network_, &metrics_);
  // Always constructed — its constructor schedules nothing, so fault-free
  // traces are unaffected; repairs only start when the detection hooks
  // (below) or a test feed it a node failure.
  replication_manager_ = std::make_unique<ReplicationManager>(
      sim_, *namenode_, *network_, rng_.fork(4));
  replication_manager_->set_trace(trace_.get());
  replication_manager_->set_rpc_router(rpc_router_.get());
  if (config_.replication_rate_limit > 0.0) {
    repl_limiter_ = std::make_unique<RateLimiter>(
        config_.replication_rate_limit, kReplicationBurst);
    replication_manager_->set_rate_limiter(repl_limiter_.get());
  }

  switch (config_.mode) {
    case RunMode::kIgnem: {
      master_ = std::make_unique<IgnemMaster>(sim_, *namenode_, config_.ignem,
                                              rng_.fork(2));
      master_->set_trace(trace_.get());
      master_->set_rpc_router(rpc_router_.get());
      for (std::size_t i = 0; i < n; ++i) {
        slaves_.push_back(std::make_unique<IgnemSlave>(
            sim_, *datanodes_[i], config_.ignem, rm_.get()));
        slaves_.back()->set_trace(trace_.get());
        master_->register_slave(slaves_.back().get());
      }
      dfs_->set_migration_service(master_.get());
      break;
    }
    case RunMode::kInstantMigration: {
      instant_ = std::make_unique<InstantMigrationService>(*namenode_,
                                                           rng_.fork(3));
      dfs_->set_migration_service(instant_.get());
      break;
    }
    case RunMode::kHotDataPromotion: {
      for (std::size_t i = 0; i < n; ++i) {
        promoters_.push_back(
            std::make_unique<HotDataPromoter>(sim_, *datanodes_[i]));
        promoters_.back()->set_trace(trace_.get());
      }
      break;
    }
    case RunMode::kHdfs:
    case RunMode::kHdfsInputsInRam:
      break;
  }

  if (config_.fault_tolerance) {
    detector_ = std::make_unique<FailureDetector>(sim_, *namenode_,
                                                  config_.detector);
    detector_->set_trace(trace_.get());
    detector_->set_rpc_router(rpc_router_.get());
    detector_->set_on_node_dead([this](NodeId node) {
      // handle_node_failure marks the node dead in the namespace and queues
      // re-replication; the Ignem master then reroutes the migrations it had
      // routed to the dead slave.
      replication_manager_->handle_node_failure(node, config_.replication);
      if (master_ != nullptr) master_->on_node_failure(node);
    });
    detector_->set_on_node_rejoined([this](NodeId node) {
      // Heal-side reconciliation first: repairs that raced the node's return
      // may have left blocks over-replicated, so the namespace sheds the
      // excess before the master re-adopts the node's cached copies.
      replication_manager_->handle_node_rejoin(node, config_.replication);
      if (master_ != nullptr) master_->on_node_rejoin(node);
    });
    // The node's one heartbeat reaches the NameNode side first.
    rm_->set_heartbeat_listener(
        [this](NodeId node) { detector_->on_heartbeat(node); });
  }

  // Data-integrity plane. The manager schedules nothing and reports only
  // fire when a checksum pass actually finds rot, so fault-free traces stay
  // bit-identical; only the opt-in scrubber generates background events.
  integrity_ = std::make_unique<IntegrityManager>(
      *namenode_, *replication_manager_, config_.replication);
  integrity_->set_trace(trace_.get());
  integrity_->set_cache_purger([this](NodeId node, BlockId block) {
    // The slave owns its copies' references and the promoter its LRU list;
    // without either the copy is dropped directly.
    if (IgnemSlave* slave = ignem_slave(node); slave != nullptr) {
      return slave->purge_block(block);
    }
    if (HotDataPromoter* promoter = hot_data_promoter(node);
        promoter != nullptr) {
      return promoter->purge_block(block);
    }
    return datanode(node).cache().unlock(block);
  });
  integrity_->set_on_disk_corrupt([this](BlockId block, NodeId node) {
    if (master_ != nullptr) master_->on_replica_corrupt(block, node);
  });
  for (const auto& dn : datanodes_) {
    dn->set_corruption_reporter([this](NodeId node, BlockId block, bool cached,
                                       CorruptionSource source) {
      integrity_->report(node, block, cached, source);
    });
  }
  if (config_.integrity.enable_scrubber) {
    scrubber_ = std::make_unique<Scrubber>(sim_, *namenode_,
                                           config_.integrity);
  }

  if (migration_enabled()) {
    memory_sampler_ = std::make_unique<PeriodicTask>(
        sim_, kMemorySamplePeriod, [this] { sample_memory(); });
  }

  // All recording below is passive: no events scheduled, no RNG consumed,
  // so the pinned trace hashes (recorded before metrics existed) hold. Time
  // series piggyback on the existing memory sampler rather than adding a
  // periodic event of their own.
  dfs_->set_metrics_registry(&registry_);
  network_->set_metrics_registry(&registry_);
  if (detector_ != nullptr) detector_->set_metrics_registry(&registry_);
}

Testbed::~Testbed() = default;

std::uint64_t Testbed::trace_hash() const {
  return trace_ == nullptr ? 0 : trace_->trace_hash();
}

std::string Testbed::replica_model_mismatch() const {
  std::ostringstream out;
  // Each DataNode's table holds exactly the blocks the NameNode lists on
  // it: failure and rejoin handling walk those tables.
  std::vector<std::vector<BlockId>> listed(datanodes_.size());
  for (const auto& [block_id, info] : namenode_->all_blocks()) {
    for (const NodeId node : info.replicas) {
      listed[static_cast<std::size_t>(node.value())].push_back(block_id);
    }
  }
  for (std::size_t n = 0; n < datanodes_.size(); ++n) {
    std::sort(listed[n].begin(), listed[n].end());
    if (datanodes_[n]->blocks_sorted() != listed[n]) {
      out << "node " << n << ": its replica table ("
          << datanodes_[n]->block_count()
          << " blocks) differs from the NameNode's list (" << listed[n].size()
          << " blocks)";
      return out.str();
    }
  }
  if (checker_ == nullptr) return {};
  const ReplicaAccountingRule* model = checker_->replica_model();
  if (model == nullptr) return {};
  for (const auto& [block_id, info] : namenode_->all_blocks()) {
    if (model->replica_count(block_id) != info.replicas.size()) {
      out << "block " << block_id.value() << ": trace saw "
          << model->replica_count(block_id) << " replicas, NameNode has "
          << info.replicas.size();
      return out.str();
    }
    for (const NodeId node : info.replicas) {
      if (!model->has_replica(block_id, node)) {
        out << "block " << block_id.value() << ": NameNode replica on node "
            << node.value() << " never appeared in the trace";
        return out.str();
      }
    }
  }
  const std::vector<std::vector<NodeId>>& traced = model->blocks();
  for (std::size_t block = 0; block < traced.size(); ++block) {
    if (!traced[block].empty() &&
        !namenode_->all_blocks().contains(
            BlockId(static_cast<std::int64_t>(block)))) {
      out << "trace has replicas for block " << block
          << " unknown to the NameNode";
      return out.str();
    }
  }
  return {};
}

std::string Testbed::integrity_accounting_mismatch() const {
  std::ostringstream out;
  const IntegrityStats& stats = integrity_->stats();
  const std::uint64_t invalidated =
      replication_manager_->stats().corrupt_invalidated;
  const std::uint64_t still_marked = namenode_->corrupt_replica_count();
  // Every accepted stored-corruption report ends exactly one of two ways:
  // the bad replica was invalidated, or (unrepairable) it is still marked.
  if (stats.disk_corrupt_detected != invalidated + still_marked) {
    out << "disk corruption accounting: detected="
        << stats.disk_corrupt_detected << ", invalidated=" << invalidated
        << ", still marked=" << still_marked;
    return out.str();
  }
  // A surviving mark must sit on a replica the namespace still lists.
  for (const auto& [block_id, info] : namenode_->all_blocks()) {
    for (const NodeId node : namenode_->corrupt_replicas(block_id)) {
      if (std::find(info.replicas.begin(), info.replicas.end(), node) ==
          info.replicas.end()) {
        out << "block " << block_id.value() << ": corrupt mark on node "
            << node.value() << " which no longer holds a replica";
        return out.str();
      }
    }
  }
  // Cached-copy marks live exactly as long as the copy: every mark must sit
  // on a block the pool still holds.
  for (const auto& dn : datanodes_) {
    const BufferCache& pool = dn->cache();
    std::size_t on_copies = 0;
    for (const BlockId block : pool.blocks_sorted()) {
      if (pool.is_corrupt(block)) ++on_copies;
    }
    if (on_copies != pool.corrupt_count()) {
      out << "node " << dn->id().value() << ": "
          << pool.corrupt_count() - on_copies
          << " pool corruption marks outlived their copies";
      return out.str();
    }
  }
  return {};
}

FileId Testbed::create_file(const std::string& path, Bytes size) {
  return namenode_->create_file(path, size);
}

void Testbed::preload(const std::vector<FileId>& files) {
  preload_all_inputs(*namenode_, files);
}

IgnemSlave* Testbed::ignem_slave(NodeId node) {
  if (slaves_.empty()) return nullptr;
  IGNEM_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value()) < slaves_.size());
  return slaves_[static_cast<std::size_t>(node.value())].get();
}

HotDataPromoter* Testbed::hot_data_promoter(NodeId node) {
  if (promoters_.empty()) return nullptr;
  IGNEM_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value()) < promoters_.size());
  return promoters_[static_cast<std::size_t>(node.value())].get();
}

void Testbed::sample_memory() {
  // Aggregates for the registry time series (filled while walking nodes).
  Bytes total_locked = 0;
  std::size_t total_queue_depth = 0;

  for (const auto& dn : datanodes_) {
    const Bytes locked = dn->cache().used();
    metrics_.add_memory_sample(locked);
    total_locked += locked;
  }
  for (const auto& slave : slaves_) total_queue_depth += slave->queue_depth();

  const Duration w = kMemorySamplePeriod;
  const SimTime now = sim_.now();
  registry_.series("ignem.locked_bytes", w)
      .record(now, static_cast<double>(total_locked));
  registry_.series("ignem.migration_queue_depth", w)
      .record(now, static_cast<double>(total_queue_depth));
  const DfsStats& reads = dfs_->stats();
  registry_.series("ignem.cache_hit_ratio", w)
      .record(now, reads.reads_completed == 0
                       ? 0.0
                       : static_cast<double>(reads.memory_reads) /
                             static_cast<double>(reads.reads_completed));
  if (scrubber_ != nullptr) {
    registry_.series("scrub.blocks_scanned", w)
        .record(now, static_cast<double>(scrubber_->stats().blocks_scanned));
  }
}

bool Testbed::migration_enabled() const {
  return config_.mode == RunMode::kIgnem ||
         config_.mode == RunMode::kInstantMigration;
}

namespace {

/// Effectively infinite at simulated bandwidths (~decades of transfer time):
/// a hog transfer never completes on its own; the end of the fault window
/// aborts it.
constexpr Bytes kHogBytes = Bytes{1} << 50;

int hog_streams(double severity) {
  return std::max(1, static_cast<int>(std::lround(severity)));
}

}  // namespace

void Testbed::emit_fault_event(TraceEventType type, NodeId node,
                               std::uint64_t detail) {
  if (trace_ != nullptr) {
    trace_->emit(type, node, BlockId::invalid(), JobId::invalid(), 0, detail);
  }
}

void Testbed::fail_node(NodeId node) {
  DataNode& dn = datanode(node);
  IGNEM_CHECK_MSG(dn.alive(),
                  "fail_node: node " << node.value() << " is already down");
  // Crash event first: the slave purge and cache reclamation below emit
  // unlock events the NodeDownRule only permits on a down node.
  emit_fault_event(TraceEventType::kFaultNodeCrash, node);
  // The slave and the hot-data promoter live in the DataNode process.
  IgnemSlave* slave = ignem_slave(node);
  if (slave != nullptr) slave->reset();
  HotDataPromoter* promoter = hot_data_promoter(node);
  if (promoter != nullptr) promoter->reset();
  dn.fail();
  rm_->halt_heartbeat(node);
}

void Testbed::restart_node(NodeId node) {
  DataNode& dn = datanode(node);
  IGNEM_CHECK_MSG(!dn.alive(),
                  "restart_node: node " << node.value() << " is not down");
  emit_fault_event(TraceEventType::kRecoverNodeRestart, node);
  dn.restart();
  // Re-registration is heartbeat-driven: the NameNode and RM each readmit
  // the node when its first post-restart beat lands. If a heartbeat-delay or
  // partition window is still open, the restarted node stays silent until
  // that window's own end lifts the suppression.
  if (hb_suppress_depth_[static_cast<std::size_t>(node.value())] == 0) {
    rm_->resume_heartbeat(node);
  }
}

void Testbed::crash_master() {
  if (master_ == nullptr || master_->failed()) return;
  emit_fault_event(TraceEventType::kFaultMasterCrash, NodeId::invalid());
  master_->fail();
}

void Testbed::restart_master() {
  if (master_ == nullptr || !master_->failed()) return;
  master_->restart();
  emit_fault_event(TraceEventType::kRecoverMasterRestart, NodeId::invalid());
}

void Testbed::crash_slave(NodeId node) {
  IgnemSlave* slave = ignem_slave(node);
  if (slave == nullptr) return;
  DataNode& dn = datanode(node);
  if (!dn.alive()) return;  // the whole server is already down
  emit_fault_event(TraceEventType::kFaultSlaveCrash, node);
  // The slave shares the DataNode process (§III-B), so its crash drops all
  // locked memory; supervision restarts the process immediately (a point
  // fault), so only reads in flight at the crash instant fail.
  slave->reset();
  dn.fail();
  dn.restart();
  emit_fault_event(TraceEventType::kRecoverSlaveRestart, node);
}

void Testbed::begin_disk_fail_stop(NodeId node) {
  emit_fault_event(TraceEventType::kFaultDiskFailStop, node);
  datanode(node).set_disk_failed(true);
}

void Testbed::end_disk_fail_stop(NodeId node) {
  datanode(node).set_disk_failed(false);
  emit_fault_event(TraceEventType::kRecoverDisk, node, /*detail=*/0);
}

void Testbed::begin_disk_fail_slow(NodeId node, double severity) {
  const int streams = hog_streams(severity);
  emit_fault_event(TraceEventType::kFaultDiskFailSlow, node,
                   static_cast<std::uint64_t>(streams));
  StorageDevice& device = datanode(node).primary_device();
  auto& hogs = disk_hogs_[node];
  for (int i = 0; i < streams; ++i) {
    hogs.push_back(device.read(kHogBytes, [] {}));
  }
}

void Testbed::end_disk_fail_slow(NodeId node) {
  StorageDevice& device = datanode(node).primary_device();
  for (const TransferHandle handle : disk_hogs_[node]) device.abort(handle);
  disk_hogs_.erase(node);
  emit_fault_event(TraceEventType::kRecoverDisk, node, /*detail=*/1);
}

void Testbed::begin_network_degrade(NodeId node, double severity) {
  const int streams = hog_streams(severity);
  emit_fault_event(TraceEventType::kFaultNetworkDegrade, node,
                   static_cast<std::uint64_t>(streams));
  SharedBandwidthResource& nic = network_->nic(node);
  auto& hogs = net_hogs_[node];
  for (int i = 0; i < streams; ++i) {
    hogs.push_back(nic.start(kHogBytes, [] {}));
  }
}

void Testbed::end_network_degrade(NodeId node) {
  SharedBandwidthResource& nic = network_->nic(node);
  for (const TransferHandle handle : net_hogs_[node]) nic.abort(handle);
  net_hogs_.erase(node);
  emit_fault_event(TraceEventType::kRecoverNetwork, node);
}

void Testbed::suppress_heartbeats(NodeId node) {
  if (++hb_suppress_depth_[static_cast<std::size_t>(node.value())] > 1) {
    return;  // already silenced by another window
  }
  rm_->halt_heartbeat(node);
}

void Testbed::release_heartbeats(NodeId node) {
  int& depth = hb_suppress_depth_[static_cast<std::size_t>(node.value())];
  IGNEM_CHECK(depth > 0);
  if (--depth > 0) return;  // another window still holds the node silent
  // A node that crashed during the window stays silent; its own restart
  // resumes the beats.
  if (!datanode(node).alive()) return;
  rm_->resume_heartbeat(node);
}

void Testbed::begin_heartbeat_delay(NodeId node) {
  emit_fault_event(TraceEventType::kFaultHeartbeatDelay, node);
  suppress_heartbeats(node);
}

void Testbed::end_heartbeat_delay(NodeId node) {
  emit_fault_event(TraceEventType::kRecoverHeartbeat, node);
  release_heartbeats(node);
}

void Testbed::begin_network_partition(NodeId node, int variant) {
  emit_fault_event(TraceEventType::kPartitionStart, node,
                   static_cast<std::uint64_t>(variant));
  ReachabilityMatrix& matrix = network_->reachability();
  switch (variant) {
    case 0:
      matrix.block_outbound(node);
      matrix.block_inbound(node);
      break;
    case 1: matrix.block_outbound(node); break;
    case 2: matrix.block_inbound(node); break;
    default:
      IGNEM_CHECK_MSG(false, "unknown partition variant " << variant);
  }
  network_->sever_partitioned_transfers();
  // Heartbeats travel node -> NameNode/RM, so any outbound cut silences
  // them. An inbound-only cut leaves them flowing: the node looks alive to
  // the detector while nobody can actually send it data — the asymmetric
  // shape that makes reachability checks on the read/repair paths matter.
  // With a routed control plane the beats are real RPCs gated on the same
  // matrix, so the Testbed no longer needs to fake the silence.
  if (rpc_router_ == nullptr && (variant == 0 || variant == 1)) {
    suppress_heartbeats(node);
  }
}

void Testbed::end_network_partition(NodeId node, int variant) {
  emit_fault_event(TraceEventType::kPartitionHeal, node,
                   static_cast<std::uint64_t>(variant));
  ReachabilityMatrix& matrix = network_->reachability();
  switch (variant) {
    case 0:
      matrix.unblock_outbound(node);
      matrix.unblock_inbound(node);
      break;
    case 1: matrix.unblock_outbound(node); break;
    case 2: matrix.unblock_inbound(node); break;
    default:
      IGNEM_CHECK_MSG(false, "unknown partition variant " << variant);
  }
  if (rpc_router_ == nullptr && (variant == 0 || variant == 1)) {
    release_heartbeats(node);
  }
}

void Testbed::begin_rack_partition(NodeId node) {
  emit_fault_event(TraceEventType::kPartitionStart, node, /*detail=*/3);
  const int rack = network_->topology().rack_of(node);
  const std::vector<NodeId> members = network_->topology().rack_members(rack);
  network_->reachability().block_group(rack, members);
  network_->sever_partitioned_transfers();
  // Unrouted legacy model: the control plane (NameNode/RM/detector) is
  // assumed to live outside the cut rack, so every member's heartbeats
  // stop; intra-rack data traffic still flows. With a routed control plane
  // the beats gate on the matrix itself — which also gets the control
  // node's own rack right: cutting *its* rack silences everyone else.
  if (rpc_router_ == nullptr) {
    for (const NodeId member : members) suppress_heartbeats(member);
  }
}

void Testbed::end_rack_partition(NodeId node) {
  emit_fault_event(TraceEventType::kPartitionHeal, node, /*detail=*/3);
  const int rack = network_->topology().rack_of(node);
  network_->reachability().unblock_group(rack);
  if (rpc_router_ == nullptr) {
    for (const NodeId member : network_->topology().rack_members(rack)) {
      release_heartbeats(member);
    }
  }
}

void Testbed::corrupt_block(NodeId node) {
  const DataNode& dn = datanode(node);
  std::vector<BlockId> candidates;
  for (const BlockId block : dn.blocks_sorted()) {
    if (!dn.is_corrupt(block)) candidates.push_back(block);
  }
  if (candidates.empty()) return;  // nothing stored, or all already rotten
  corrupt_replica(node, candidates[static_cast<std::size_t>(rng_.uniform_int(
                            0, static_cast<std::int64_t>(candidates.size()) -
                                   1))]);
}

void Testbed::corrupt_cached_block(NodeId node) {
  const BufferCache& cache = datanode(node).cache();
  std::vector<BlockId> candidates;
  for (const BlockId block : cache.blocks_sorted()) {
    if (!cache.is_corrupt(block)) candidates.push_back(block);
  }
  if (candidates.empty()) return;  // empty pool: the fault lands on nothing
  corrupt_cached_replica(
      node, candidates[static_cast<std::size_t>(rng_.uniform_int(
                0, static_cast<std::int64_t>(candidates.size()) - 1))]);
}

void Testbed::corrupt_replica(NodeId node, BlockId block) {
  DataNode& dn = datanode(node);
  IGNEM_CHECK_MSG(dn.has_block(block),
                  "corrupt_replica: node " << node.value()
                                           << " does not store the block");
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kFaultBlockCorrupt, node, block,
                 JobId::invalid(), dn.block_size(block), 0);
  }
  dn.corrupt_block(block);
}

void Testbed::corrupt_cached_replica(NodeId node, BlockId block) {
  DataNode& dn = datanode(node);
  IGNEM_CHECK_MSG(dn.cache().contains(block),
                  "corrupt_cached_replica: node "
                      << node.value() << " has no locked copy of the block");
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kFaultBlockCorrupt, node, block,
                 JobId::invalid(), namenode_->block(block).size, 1);
  }
  dn.corrupt_cached_copy(block);
}

JobRunner* Testbed::submit_job(JobSpec spec,
                               JobRunner::CompletionCallback on_complete,
                               bool allow_migration) {
  spec.use_ignem = allow_migration && migration_enabled();
  // vmtouch semantics: in the inputs-in-RAM configuration every input file
  // is pinned once it exists, before the job reads it.
  if (config_.mode == RunMode::kHdfsInputsInRam) preload(spec.inputs);
  const JobId id = next_job_id();
  auto runner = std::make_unique<JobRunner>(sim_, *rm_, *dfs_, *network_,
                                            &metrics_, id, std::move(spec));
  JobRunner* raw = runner.get();
  runners_.push_back(std::move(runner));
  ++jobs_remaining_;
  raw->submit([this, cb = std::move(on_complete)](const JobRecord& record) {
    --jobs_remaining_;
    if (cb) cb(record);
  });
  return raw;
}

void Testbed::run_until_jobs_done() {
  sim_.run_until([this] { return jobs_remaining_ == 0; });
  IGNEM_CHECK_MSG(jobs_remaining_ == 0,
                  "jobs still pending: " << jobs_remaining_);
  // Drain administrative traffic (evict RPCs from the final completions):
  // the cluster's periodic heartbeats keep the queue non-empty forever, so
  // run a bounded grace window rather than to quiescence.
  sim_.run(sim_.now() + Duration::seconds(1.0));
}

void Testbed::run_workload(std::vector<ScheduledJob> jobs) {
  const bool done = run_workload_to(std::move(jobs), SimTime::max());
  IGNEM_CHECK_MSG(done, "workload did not finish: " << jobs_remaining_
                                                    << " jobs still pending");
}

bool Testbed::run_workload_limited(std::vector<ScheduledJob> jobs,
                                   Duration limit) {
  IGNEM_CHECK(limit > Duration::zero());
  return run_workload_to(std::move(jobs), sim_.now() + limit);
}

bool Testbed::run_workload_to(std::vector<ScheduledJob> jobs,
                              SimTime deadline) {
  IGNEM_CHECK(!jobs.empty());

  const bool migration_on = migration_enabled();
  if (config_.mode == RunMode::kHdfsInputsInRam) {
    std::vector<FileId> all_inputs;
    for (const auto& job : jobs) {
      all_inputs.insert(all_inputs.end(), job.spec.inputs.begin(),
                        job.spec.inputs.end());
    }
    std::sort(all_inputs.begin(), all_inputs.end());
    all_inputs.erase(std::unique(all_inputs.begin(), all_inputs.end()),
                     all_inputs.end());
    preload(all_inputs);
  }

  jobs_remaining_ += jobs.size();
  for (auto& job : jobs) {
    job.spec.use_ignem = migration_on;
    const JobId id = next_job_id();
    auto runner = std::make_unique<JobRunner>(
        sim_, *rm_, *dfs_, *network_, &metrics_, id, std::move(job.spec));
    JobRunner* raw = runner.get();
    runners_.push_back(std::move(runner));
    sim_.schedule(job.arrival, [this, raw] {
      raw->submit([this](const JobRecord&) { --jobs_remaining_; });
    });
  }
  // Each runner owns its spec now; the list is not read again.
  jobs = std::vector<ScheduledJob>();

  sim_.run_until([this] { return jobs_remaining_ == 0; }, deadline);
  const bool done = jobs_remaining_ == 0;
  // Grace window: let the final jobs' evict RPCs land (see
  // run_until_jobs_done) before callers inspect cache state.
  if (done) sim_.run(sim_.now() + Duration::seconds(1.0));
  if (memory_sampler_ != nullptr) memory_sampler_->stop();
  return done;
}

ConfigFingerprint Testbed::fingerprint() const {
  ConfigFingerprint fp;
  fp.seed = config_.seed;
  fp.nodes = static_cast<int>(datanodes_.size());
  fp.racks = config_.rack_count;
  fp.replication = config_.replication;
  fp.storage_media = media_name(primary_profile().media);
  fp.fault_tolerance = config_.fault_tolerance;
  fp.scrubber = config_.integrity.enable_scrubber;
  fp.control_plane = rpc_router_ != nullptr ? "routed" : "direct";
  return fp;
}

RunReport Testbed::build_run_report(const std::string& name) const {
  RunReport report;
  report.name = name;
  report.mode = run_mode_name(config_.mode);
  report.fingerprint = fingerprint();
  report.registry = &registry_;

  report.kernel = sim_.profile();

  // Each component names its own counters; the per-node ones add into
  // shared names, so the report holds cluster-wide sums.
  std::map<std::string, std::uint64_t>& counters = report.counters;
  dfs_->add_counters(counters);
  replication_manager_->add_counters(counters);
  network_->add_counters(counters);
  integrity_->add_counters(counters);
  if (detector_ != nullptr) detector_->add_counters(counters);
  if (rpc_router_ != nullptr) rpc_router_->add_counters(counters);
  if (scrubber_ != nullptr) scrubber_->add_counters(counters, report.gauges);
  if (master_ != nullptr) master_->add_counters(counters);
  for (const auto& slave : slaves_) slave->add_counters(counters);
  for (const auto& promoter : promoters_) promoter->add_counters(counters);
  for (const auto& dn : datanodes_) dn->add_counters(counters);

  report.summary.emplace_back("jobs",
                              static_cast<double>(metrics_.jobs().size()));
  report.summary.emplace_back("mean_job_duration_s",
                              metrics_.mean_job_duration_seconds());
  report.summary.emplace_back("memory_read_fraction",
                              metrics_.memory_read_fraction());
  report.summary.emplace_back(
      "events_dispatched", static_cast<double>(sim_.events_dispatched()));
  return report;
}

}  // namespace ignem
