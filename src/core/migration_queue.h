// The per-slave queue of pending block migrations.
//
// Orders work by the configured policy (§III-A1): smallest-job-first — jobs
// with smaller total inputs are more likely to be fully migrated within
// their lead-time, and more jobs benefit — with job submission order as the
// tie-breaker; or plain FIFO for the §IV-C5 ablation. Started migrations
// are never preempted (that decision lives in the slave; the queue only
// holds not-yet-started work).
#pragma once

#include <cstdint>
#include <optional>
#include <set>

#include "common/ids.h"
#include "common/units.h"
#include "core/ignem_config.h"
#include "dfs/migration_service.h"
#include "obs/trace_recorder.h"

namespace ignem {

/// One queued command: migrate `block` on behalf of `job`.
struct PendingMigration {
  BlockId block;
  Bytes bytes = 0;
  JobId job;
  Bytes job_input_bytes = 0;
  EvictionMode eviction = EvictionMode::kImplicit;
  std::uint64_t arrival_seq = 0;  ///< Global command order (submission order).
  /// Earliest start time (retry backoff). Not part of the priority order:
  /// a backed-off entry keeps its place but is skipped until ready.
  SimTime not_before;
};

class MigrationQueue {
 public:
  explicit MigrationQueue(QueueOrder policy);

  /// Enqueues a command. Multiple jobs may queue the same block; each entry
  /// is tracked separately so reference bookkeeping stays exact.
  void push(const PendingMigration& m);

  /// Removes and returns the highest-priority entry, or nullopt when empty.
  std::optional<PendingMigration> pop();

  /// Like pop, but skip entries still serving their retry backoff
  /// (`not_before > now`); peek_ready does not remove.
  const PendingMigration* peek_ready(SimTime now) const;
  std::optional<PendingMigration> pop_ready(SimTime now);

  /// Earliest `not_before` among entries not ready at `now`, or nullopt when
  /// none are backed off — when the slave should wake to re-check.
  std::optional<SimTime> next_ready_time(SimTime now) const;

  /// Drops all entries for `block` (any job); returns how many were removed.
  std::size_t erase_block(BlockId block);

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Emits kMigrationEnqueue/kMigrationDequeue/kMigrationDrop tagged with
  /// the owning slave's node id.
  void set_trace(TraceRecorder* trace, NodeId node) {
    trace_ = trace;
    trace_node_ = node;
  }

 private:
  void emit(TraceEventType type, const PendingMigration& m) const;

  struct Order {
    QueueOrder policy;
    bool operator()(const PendingMigration& a, const PendingMigration& b) const;
  };

  std::set<PendingMigration, Order> entries_;
  TraceRecorder* trace_ = nullptr;
  NodeId trace_node_;
};

}  // namespace ignem
