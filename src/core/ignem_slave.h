// IgnemSlave: per-node migration engine (lives inside the DataNode process).
//
// Controls *how* and *when* blocks move into memory (§III-A):
//  - queues incoming commands and drains them by policy (smallest-job-first
//    by default, FIFO for the ablation), never preempting a started
//    migration, one block at a time to avoid disk-contention collapse;
//  - is work-conserving: an idle disk starts the next migration immediately;
//  - keeps one table: a reference list of job IDs per block, and evicts a
//    block exactly when its list empties (Do-not-harm: no pressure-driven
//    eviction, §III-A3);
//  - drops a job's reference both when the job reads the block and when its
//    job-completion evict RPC arrives (§III-A4);
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

  /// DataNode read hook: the reading job drops its reference, which evicts
  /// the block once no other job needs it, and discards a still-queued
  /// command (a block read from disk no longer needs migrating for that
  /// job).
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

  using BlockTable = std::unordered_map<BlockId, BlockState>;

  /// Removes one job reference; evicts/cancels when the list empties and
  /// returns whether it did. Starts no work: each entry point calls
  /// maybe_start once, at its end, if it dropped a block.
  bool remove_reference(BlockId block, JobId job, bool missed_read);
  /// Dequeues or unlocks a queued or resident block and forgets it.
  void drop_block(BlockTable::iterator it);
  /// Starts the queue head if none is in flight. When the head does not fit
  /// and the pool is past kCleanupOccupancyThreshold, runs one cleanup
  /// round per call and, if it reaped anything, looks at the head again.
  void maybe_start();
  /// Arms a single wake event at the earliest retry-backoff expiry so a
  /// backed-off queue gets re-examined without polling.
  void schedule_ready_wake();
  void on_migration_complete(BlockId block, Bytes bytes);
  /// Removes every reference held by a job the scheduler no longer runs, in
  /// (block, job) order; returns whether it removed any.
  bool cleanup_dead_jobs();
  /// Aborts the in-flight page-in, if any, and returns its reservation.
  void abort_migration();

  Simulator& sim_;
  DataNode& datanode_;
  IgnemConfig config_;
  const JobLivenessOracle* liveness_;
  TraceRecorder* trace_ = nullptr;

  MigrationQueue queue_;
  BlockTable blocks_;
  std::optional<ActiveMigration> current_;
  std::uint64_t next_seq_ = 1;
  bool wake_pending_ = false;  ///< A ready-wake event is armed for wake_time_.
  SimTime wake_time_;
  SlaveStats stats_;
};

}  // namespace ignem
