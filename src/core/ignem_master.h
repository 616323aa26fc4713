// IgnemMaster: the cluster-wide migration coordinator (hosted in the
// NameNode process, §III-B).
//
// Determines *what* to migrate: maps the client's file list to blocks using
// the NameNode's block map, picks exactly one replica per block (network
// bandwidth is plentiful, so one memory-resident copy serves the cluster,
// §III-A2), and ships batched commands to the chosen slaves (§III-A6).
// Eviction requests route to the same slave the migrate command went to.
// On master failure all of this soft state is lost; slaves purge to match
// (§III-A5).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "core/ignem_config.h"
#include "core/ignem_slave.h"
#include "dfs/migration_service.h"
#include "dfs/namenode.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace ignem {

struct MasterStats {
  std::uint64_t requests = 0;
  std::uint64_t migrate_commands = 0;
  std::uint64_t evict_commands = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t rejoin_reclaimed = 0;  ///< References kept/re-adopted on rejoin.
  std::uint64_t rejoin_purged = 0;     ///< References evicted on rejoin.
  /// Routed mode only: migrate batches / rejoin exchanges dropped because
  /// the control RPC never landed (the job just misses its speed-up).
  std::uint64_t rpc_batches_lost = 0;
  /// Routed mode only: evict batches re-sent after an RPC failure —
  /// evictions must eventually land or locked bytes would leak.
  std::uint64_t rpc_evict_retries = 0;
};

class IgnemMaster : public MigrationService {
 public:
  IgnemMaster(Simulator& sim, NameNode& namenode, const IgnemConfig& config,
              Rng rng);

  IgnemMaster(const IgnemMaster&) = delete;
  IgnemMaster& operator=(const IgnemMaster&) = delete;

  /// Slaves register in NodeId order, mirroring DataNode registration.
  void register_slave(IgnemSlave* slave);

  /// Client RPC entry point (DfsClient::migrate forwards here).
  void request(const MigrationRequest& request) override;

  /// Master process failure: soft state is dropped, in-flight RPCs are lost,
  /// and every live slave purges its reference lists. Only jobs with
  /// in-flight migrations lose performance (§III-A5).
  void fail();

  /// Brings a fresh master process up; it serves new requests with empty
  /// state.
  void restart();

  /// Failure-detection hook: `node` was declared dead. Every migration whose
  /// chosen slave sat there is rerouted to a surviving replica, delayed by
  /// capped exponential backoff; after `kMaxMigrationRetries` reroutes the
  /// migration is dropped for good (the job falls back to disk reads).
  void on_node_failure(NodeId node);

  /// A declared-dead node came back. Reconcile instead of purging: the
  /// slave reports every reference it still tracks; references the master
  /// also tracks (or can re-adopt because the job is still live) are kept —
  /// the cached copies survive the spurious death — and only references to
  /// finished or forgotten jobs are evicted, so no locked bytes leak.
  void on_node_rejoin(NodeId node);

  /// Integrity hook: `node`'s replica of `block` was found corrupt. Every
  /// migration of that block chosen onto `node` reroutes to a clean replica
  /// under the same backoff schedule as a node failure (the slave itself
  /// purged any copy it held).
  void on_replica_corrupt(BlockId block, NodeId node);

  const MasterStats& stats() const { return stats_; }
  /// Adds every MasterStats field to `counters` under its report name
  /// (ignem.master.*); the two rpc_* fields only on a routed control plane.
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;
  bool failed() const { return failed_; }

  /// Where the master sent `job`'s migrate command for `block`, if any.
  NodeId chosen_replica(JobId job, BlockId block) const;

  /// Emits kMigrateRequest/kEvictRequest when client RPCs are processed.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Routes master->slave batches (migrate, evict) and the rejoin exchange
  /// through the control node with deadline+retry semantics. The client
  /// `request()` RPC stays direct: the submitter co-runs with the job, and
  /// modeling its link is out of scope here. Null — the default — keeps the
  /// historical fixed-latency direct sends.
  void set_rpc_router(RpcRouter* router) { router_ = router; }

 private:
  void process(const MigrationRequest& request);
  void do_migrate(const MigrationRequest& request);
  void do_evict(const MigrationRequest& request);
  /// Drops `away` from one chosen_ entry's target list and reroutes that
  /// migration to a surviving replica (capped exponential backoff), appending
  /// the command to `batches`. Returns true when the entry ended up with no
  /// targets and no replacement, i.e. the caller should erase it.
  bool reroute_away(const std::pair<JobId, BlockId>& key,
                    std::vector<NodeId>& targets, NodeId away,
                    std::map<NodeId, std::vector<PendingMigration>>& batches);
  /// Ships each per-slave batch after one RPC latency.
  void send_migrate_batches(
      std::map<NodeId, std::vector<PendingMigration>>& batches);
  /// Ships one eviction batch; in routed mode an undeliverable batch is
  /// re-sent after the backoff cap until the slave's memory is known gone
  /// (process death) — a lost evict would leak locked bytes forever.
  void send_evict_batch(NodeId node, JobId job, std::vector<BlockId> blocks);

  Simulator& sim_;
  NameNode& namenode_;
  IgnemConfig config_;
  Rng rng_;
  TraceRecorder* trace_ = nullptr;
  RpcRouter* router_ = nullptr;
  std::vector<IgnemSlave*> slaves_;
  bool failed_ = false;

  /// Soft state: which slave(s) hold each (job, block) migration. One entry
  /// in the paper's design; more when replicas_to_migrate > 1.
  std::map<std::pair<JobId, BlockId>, std::vector<NodeId>> chosen_;
  /// Per-job input bytes, kept while the job is live so rerouted
  /// migrations carry the same priority.
  std::map<JobId, Bytes> job_info_;
  /// Reroute attempts per (job, block), for the backoff schedule.
  std::map<std::pair<JobId, BlockId>, int> retries_;
  MasterStats stats_;
};

}  // namespace ignem
