// IgnemSlave: per-node migration engine (lives inside the DataNode process).
//
// Controls *how* and *when* blocks move into memory (§III-A):
//  - queues incoming commands and drains them by policy (smallest-job-first
//    by default, FIFO for the ablation), never preempting a started
//    migration, one block at a time to avoid disk-contention collapse;
//  - is work-conserving: an idle disk starts the next migration immediately;
//  - keeps a reference list of job IDs per migrated block and evicts a block
//    exactly when its list empties (Do-not-harm: no pressure-driven
//    eviction, §III-A3);
//  - supports explicit eviction (job-completion evict RPC) and implicit
//    eviction (reference dropped when the job reads the block, §III-A4);
//  - on memory-threshold pressure, queries the cluster scheduler for job
//    liveness and reaps references held by dead jobs;
//  - purges itself when the master fails, and loses its locked pool (but no
//    memory — the OS reclaims it) when the slave process fails (§III-A5).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/job_liveness.h"
#include "common/ids.h"
#include "common/units.h"
#include "core/ignem_config.h"
#include "core/migration_queue.h"
#include "dfs/datanode.h"
#include "sim/simulator.h"

namespace ignem {

/// Counters exposed for tests and benches; IgnemSlave::add_counters names
/// each one in the RunReport.
struct SlaveStats {
  std::uint64_t migrations_completed = 0;
  Bytes bytes_migrated = 0;
  std::uint64_t commands_received = 0;
  std::uint64_t commands_discarded_missed_read = 0;
  std::uint64_t evictions = 0;
  std::uint64_t cleanup_rounds = 0;
  std::uint64_t references_reaped = 0;
};

class IgnemSlave : public BlockReadListener {
 public:
  IgnemSlave(Simulator& sim, DataNode& datanode, const IgnemConfig& config,
             const JobLivenessOracle* liveness);

  IgnemSlave(const IgnemSlave&) = delete;
  IgnemSlave& operator=(const IgnemSlave&) = delete;

  /// One batched migrate RPC from the master.
  void handle_migrate_batch(const std::vector<PendingMigration>& commands);

  /// One batched evict RPC: drop `job` from each block's reference list.
  void handle_evict_batch(JobId job, const std::vector<BlockId>& blocks);

  /// DataNode read hook — implements implicit eviction and missed-read
  /// discard (a block read from disk no longer needs migrating for that job).
  void on_block_read(NodeId node, BlockId block, JobId job) override;

  /// The master failed: purge all reference lists to match its empty state.
  void on_master_failure();

  /// Integrity purge: drops one block's migration state — queued command or
  /// memory-resident copy — and every job reference to it (the copy is
  /// corrupt, or its disk replica was invalidated so the copy is
  /// unreachable). An in-flight page-in is left alone: its completion
  /// verifies the source and aborts there. Returns true when a locked copy
  /// was actually unlocked.
  bool purge_block(BlockId block);

  /// Drops every migration and reference and unlocks all memory. Also used
  /// when the master orders a rejoining (spuriously-declared-dead) slave to
  /// resynchronize with state the master no longer tracks.
  void purge_all();

  /// The slave process failed: all state is gone (the DataNode clears the
  /// locked pool). Call DataNode::fail()/restart() alongside.
  void reset();

  const SlaveStats& stats() const { return stats_; }
  /// Adds every SlaveStats field to `counters` under its report name
  /// (ignem.*). Every slave adds into the same names: cluster-wide sums.
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;
  NodeId node() const;
  Bytes locked_bytes() const;
  std::size_t queue_depth() const { return queue_.size(); }
  bool migration_in_progress() const { return current_.has_value(); }

  /// True when `block` is memory-resident with a non-empty reference list.
  bool holds(BlockId block) const;

  /// Every (block, job) reference the slave tracks — queued, migrating, or
  /// in memory — sorted for determinism. The master's rejoin reconciliation
  /// walks this to decide which references to re-adopt and which to evict
  /// (queued entries matter too: left alone they would later lock memory
  /// no one tracks).
  std::vector<std::pair<BlockId, JobId>> tracked_references() const;

  /// Emits kMigrationStart/kMigrationComplete and wires the underlying
  /// queue's enqueue/dequeue/drop events. An eviction's one record is the
  /// pool's kCacheUnlock.
  void set_trace(TraceRecorder* trace) {
    trace_ = trace;
    queue_.set_trace(trace, datanode_.id());
  }

 private:
  enum class Phase { kQueued, kMigrating, kInMemory };

  struct BlockState {
    Bytes bytes = 0;
    Phase phase = Phase::kQueued;
    std::vector<JobId> jobs;  ///< The reference list (§III-A4).
  };

  struct ActiveMigration {
    BlockId block;
    Bytes bytes = 0;
    TransferHandle transfer;
  };

  void add_reference(BlockId block, JobId job);
  /// Removes one job reference; evicts/cancels when the list empties.
  void remove_reference(BlockId block, JobId job, bool missed_read);
  void drop_block(BlockId block);
  void maybe_start();
  /// Arms a single wake event at the earliest retry-backoff expiry so a
  /// backed-off queue gets re-examined without polling.
  void schedule_ready_wake();
  void on_migration_complete(BlockId block, Bytes bytes);
  void cleanup_dead_jobs();

  Simulator& sim_;
  DataNode& datanode_;
  IgnemConfig config_;
  const JobLivenessOracle* liveness_;
  TraceRecorder* trace_ = nullptr;

  MigrationQueue queue_;
  std::unordered_map<BlockId, BlockState> blocks_;
  std::unordered_map<JobId, std::unordered_set<BlockId>> job_blocks_;
  std::unordered_map<JobId, EvictionMode> job_modes_;
  std::optional<ActiveMigration> current_;
  std::uint64_t next_seq_ = 1;
  bool wake_pending_ = false;  ///< A ready-wake event is armed for wake_time_.
  SimTime wake_time_;
  SlaveStats stats_;
};

}  // namespace ignem
