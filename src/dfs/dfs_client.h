// DfsClient: how jobs talk to the file system.
//
// Mirrors HDFS's DFSClient: namespace operations, block reads with replica
// selection, and — the paper's one-line integration point (§III-B3) — the
// migrate() call that job submitters use to hand Ignem their input list.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "dfs/migration_service.h"
#include "dfs/namenode.h"
#include "metrics/registry.h"
#include "metrics/run_metrics.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace ignem {

/// Cumulative read-path counters, always maintained (they are plain field
/// increments). DfsClient::add_counters names each one in the RunReport.
struct DfsStats {
  std::uint64_t reads_completed = 0;   ///< Successful read_block completions.
  std::uint64_t reads_failed = 0;      ///< Terminal deadline failures.
  std::uint64_t memory_reads = 0;      ///< Served from a locked RAM copy.
  std::uint64_t remote_reads = 0;      ///< Crossed the network.
  std::uint64_t retries = 0;           ///< Re-attempts of any cause.
  std::uint64_t replica_failovers = 0; ///< Source died mid-read.
  std::uint64_t checksum_failovers = 0;///< Corrupt copy, failed over.
};

class DfsClient {
 public:
  using ReadCallback = std::function<void(const BlockReadRecord&)>;

  DfsClient(Simulator& sim, NameNode& namenode, Network& network,
            RunMetrics* metrics);

  /// Reads `block` on behalf of `job` from a task running on `reader`.
  /// Replica choice prefers memory-resident copies, then locality:
  /// local-cached > remote-cached > local-disk > remote-disk — the paper's
  /// migrated-replica locality preference plus the observation that a remote
  /// RAM read beats a local contended-disk read on a 10 Gbps network.
  ///
  /// Crash tolerance: replicas on crashed nodes or failed disks are skipped,
  /// a read that dies mid-flight (source crashed) retries another replica
  /// after `kReadRetryDelay`, and a read that fails its checksum pass
  /// (corrupt replica, now reported and excluded) retries immediately. When
  /// no replica is reachable the client keeps retrying until recovery or
  /// re-replication restores one — up to the read deadline, after which the
  /// completion record carries `failed = true` (terminal error; the job
  /// runner fails the task instead of the sim hanging forever). The record's
  /// duration covers the whole wait.
  void read_block(NodeId reader, BlockId block, JobId job,
                  ReadCallback on_complete);

  static constexpr Duration kReadRetryDelay = Duration::millis(500);
  /// Total time budget per read_block call across all retries. Generous so
  /// transient chaos outages (tens of seconds) never fail a job, while a
  /// truly lost block still unblocks the sim.
  static constexpr Duration kReadDeadline = Duration::seconds(600);

  /// Replica locations for scheduling, ordered so nodes holding a
  /// memory-resident copy come first.
  std::vector<NodeId> preferred_locations(BlockId block) const;

  /// The paper's DFSClient::migrate extension. No-op when no migration
  /// service (i.e. stock HDFS) is configured.
  void migrate(const MigrationRequest& request);

  void set_migration_service(MigrationService* service) { service_ = service; }
  bool has_migration_service() const { return service_ != nullptr; }

  const DfsStats& stats() const { return stats_; }
  /// Adds every DfsStats field to `counters` under its report name (dfs.*).
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;

  /// Wires read-latency histograms (overall / memory-served / disk-served,
  /// in simulated microseconds). Null (the default) records nothing beyond
  /// the plain DfsStats counters. Recording is passive: it never schedules
  /// events or consumes randomness, so traces are unchanged.
  void set_metrics_registry(MetricsRegistry* registry);

  NameNode& namenode() { return namenode_; }
  const NameNode& namenode() const { return namenode_; }

 private:
  /// Picks the replica to read from; invalid() when none is reachable.
  NodeId choose_replica(NodeId reader, BlockId block) const;

  /// One read attempt; re-schedules itself on failure until the deadline.
  /// `start` is the time of the original request, preserved across retries.
  void attempt_read(NodeId reader, BlockId block, JobId job, SimTime start,
                    ReadCallback on_complete);

  /// Re-runs attempt_read after `delay`, counting the retry and its
  /// `cause` (a DfsStats failover counter, or null) — or, once the
  /// deadline has passed, fails the read instead.
  void retry_read(NodeId reader, BlockId block, JobId job, SimTime start,
                  ReadCallback on_complete, Duration delay,
                  std::uint64_t* cause);

  /// Delivers the terminal-failure record (deadline exhausted).
  void fail_read(NodeId reader, BlockId block, JobId job, SimTime start,
                 const ReadCallback& on_complete);

  Simulator& sim_;
  NameNode& namenode_;
  Network& network_;
  RunMetrics* metrics_;
  MigrationService* service_ = nullptr;
  DfsStats stats_;
  // Cached instrument pointers (see set_metrics_registry); null when off.
  HistogramMetric* read_latency_ = nullptr;
  HistogramMetric* read_latency_memory_ = nullptr;
  HistogramMetric* read_latency_disk_ = nullptr;
};

}  // namespace ignem
