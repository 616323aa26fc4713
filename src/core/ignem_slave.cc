#include "core/ignem_slave.h"

#include <algorithm>

#include "common/check.h"

namespace ignem {

IgnemSlave::IgnemSlave(Simulator& sim, DataNode& datanode,
                       const IgnemConfig& config,
                       const JobLivenessOracle* liveness)
    : sim_(sim),
      datanode_(datanode),
      config_(config),
      liveness_(liveness),
      queue_(config.policy) {
  datanode_.set_read_listener(this);
}

NodeId IgnemSlave::node() const { return datanode_.id(); }

Bytes IgnemSlave::locked_bytes() const { return datanode_.cache().used(); }

bool IgnemSlave::holds(BlockId block) const {
  const auto it = blocks_.find(block);
  return it != blocks_.end() && it->second.phase == Phase::kInMemory &&
         !it->second.jobs.empty();
}

std::vector<std::pair<BlockId, JobId>> IgnemSlave::tracked_references() const {
  std::vector<std::pair<BlockId, JobId>> refs;
  for (const auto& [block, state] : blocks_) {
    for (const JobId job : state.jobs) refs.emplace_back(block, job);
  }
  std::sort(refs.begin(), refs.end());
  return refs;
}

void IgnemSlave::add_reference(BlockId block, JobId job) {
  BlockState& state = blocks_[block];
  if (std::find(state.jobs.begin(), state.jobs.end(), job) ==
      state.jobs.end()) {
    state.jobs.push_back(job);
  }
}

void IgnemSlave::handle_migrate_batch(
    const std::vector<PendingMigration>& commands) {
  if (!datanode_.alive()) return;  // RPC to a crashed process is lost
  for (PendingMigration command : commands) {
    ++stats_.commands_received;
    const auto it = blocks_.find(command.block);
    const bool is_new = it == blocks_.end();
    add_reference(command.block, command.job);
    BlockState& state = blocks_[command.block];
    state.bytes = command.bytes;
    if (is_new) state.phase = Phase::kQueued;
    if (state.phase == Phase::kQueued) {
      command.arrival_seq = next_seq_++;
      queue_.push(command);
    }
  }
  maybe_start();
}

void IgnemSlave::maybe_start() {
  bool cleaned = false;
  while (!current_.has_value()) {
    if (!datanode_.alive()) return;
    const SimTime now = sim_.now();
    const PendingMigration* head = queue_.peek_ready(now);
    if (head == nullptr) {
      // Empty, or everything is serving a retry backoff: arm a wake at the
      // earliest expiry (no-op when the queue is truly empty).
      schedule_ready_wake();
      return;
    }

    const auto it = blocks_.find(head->block);
    if (it == blocks_.end() || it->second.phase != Phase::kQueued) {
      // Stale entry (block already handled through another job's command).
      queue_.pop_ready(now);
      continue;
    }
    BlockState& state = it->second;

    BufferCache& cache = datanode_.cache();
    if (cache.available() < state.bytes) {
      const double occupancy =
          cache.capacity() == 0
              ? 1.0
              : static_cast<double>(cache.used()) /
                    static_cast<double>(cache.capacity());
      // One round per call. It may reap the head itself, so after a round
      // that removed anything the loop looks up the queue head afresh.
      if (!cleaned && occupancy >= kCleanupOccupancyThreshold) {
        cleaned = true;
        if (cleanup_dead_jobs()) continue;
      }
      // Stalled: commands wait until memory frees or a missed read
      // discards them (§III-B2).
      return;
    }

    const PendingMigration m = *queue_.pop_ready(now);
    queue_.erase_block(m.block);  // sibling entries ride on this migration
    // Reserve capacity now; the block only becomes visible to readers when
    // the page-in completes (commit in on_migration_complete).
    IGNEM_CHECK(cache.reserve(state.bytes));
    state.phase = Phase::kMigrating;
    if (trace_ != nullptr) {
      trace_->emit(TraceEventType::kMigrationStart, datanode_.id(), m.block,
                   m.job, state.bytes);
    }
    const SimTime started = sim_.now();
    const TransferHandle transfer = datanode_.primary_device().read(
        state.bytes, [this, block = m.block, bytes = state.bytes, started] {
          // The physical read is done and the disk free; pad out to the
          // mlock page-in budget (config.migration_rate_cap) before the
          // block becomes readable from memory.
          const Duration budget = transfer_time(bytes, config_.migration_rate_cap);
          const Duration elapsed = sim_.now() - started;
          const Duration pad =
              budget > elapsed ? budget - elapsed : Duration::zero();
          sim_.schedule(pad,
                        [this, block, bytes] {
                          on_migration_complete(block, bytes);
                        },
                        EventClass::kMigration);
        });
    current_ = ActiveMigration{m.block, state.bytes, transfer};
  }
}

void IgnemSlave::schedule_ready_wake() {
  const std::optional<SimTime> next = queue_.next_ready_time(sim_.now());
  if (!next.has_value()) return;
  if (wake_pending_ && wake_time_ <= *next) return;  // earlier wake armed
  wake_pending_ = true;
  wake_time_ = *next;
  const SimTime target = *next;
  sim_.schedule(target - sim_.now(),
                [this, target] {
                  if (!wake_pending_ || wake_time_ != target) return;
                  wake_pending_ = false;
                  maybe_start();
                },
                EventClass::kMigration);
}

void IgnemSlave::on_migration_complete(BlockId block, Bytes bytes) {
  // A master failure or slave reset may have purged this migration while
  // its page-in pad event was pending; the purge already returned the
  // reservation, so the late event is a no-op.
  if (!current_.has_value() || current_->block != block) return;
  current_.reset();
  if (datanode_.is_corrupt(block)) {
    // The checksum pass over the paged-in bytes failed: the local disk
    // replica is rotten, and committing it would amplify the rot into a
    // RAM-speed copy. Abort the commit (detail=1, like other aborted
    // migrations), drop the command state, and report — the master
    // reroutes the interested jobs to a clean replica.
    datanode_.cache().cancel_reservation(bytes);
    if (trace_ != nullptr) {
      trace_->emit(TraceEventType::kMigrationComplete, datanode_.id(), block,
                   JobId::invalid(), bytes, 1);
    }
    const auto bad = blocks_.find(block);
    IGNEM_CHECK(bad != blocks_.end());
    bad->second.phase = Phase::kQueued;  // nothing locked: plain drop
    drop_block(block);
    datanode_.report_corruption(block, /*cached=*/false,
                                CorruptionSource::kMigration);
    maybe_start();
    return;
  }
  ++stats_.migrations_completed;
  stats_.bytes_migrated += bytes;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kMigrationComplete, datanode_.id(), block,
                 JobId::invalid(), bytes);
  }
  const auto it = blocks_.find(block);
  IGNEM_CHECK(it != blocks_.end());
  datanode_.cache().commit_reservation(block, bytes);
  it->second.phase = Phase::kInMemory;
  if (it->second.jobs.empty()) {
    // Every interested job finished or read from disk mid-migration.
    drop_block(block);
  }
  maybe_start();
}

bool IgnemSlave::remove_reference(BlockId block, JobId job, bool missed_read) {
  const auto it = blocks_.find(block);
  if (it == blocks_.end()) return false;
  BlockState& state = it->second;
  const auto jit = std::find(state.jobs.begin(), state.jobs.end(), job);
  if (jit == state.jobs.end()) return false;
  state.jobs.erase(jit);
  if (missed_read && state.phase == Phase::kQueued) {
    ++stats_.commands_discarded_missed_read;
  }
  if (!state.jobs.empty() || state.phase == Phase::kMigrating) return false;
  drop_block(block);
  return true;
}

void IgnemSlave::drop_block(BlockId block) {
  const auto it = blocks_.find(block);
  if (it == blocks_.end()) return;
  switch (it->second.phase) {
    case Phase::kQueued:
      queue_.erase_block(block);
      break;
    case Phase::kInMemory:
      datanode_.cache().unlock(block);
      ++stats_.evictions;
      break;
    case Phase::kMigrating:
      // Never reached: callers defer to on_migration_complete.
      IGNEM_CHECK(false);
  }
  blocks_.erase(it);
}

void IgnemSlave::handle_evict_batch(JobId job,
                                    const std::vector<BlockId>& blocks) {
  bool dropped = false;
  for (const BlockId block : blocks) {
    dropped |= remove_reference(block, job, /*missed_read=*/false);
  }
  if (dropped) maybe_start();  // the queue may have been memory-stalled
}

void IgnemSlave::on_block_read(NodeId node, BlockId block, JobId job) {
  IGNEM_CHECK(node == datanode_.id());
  if (remove_reference(block, job, /*missed_read=*/true)) maybe_start();
}

bool IgnemSlave::cleanup_dead_jobs() {
  ++stats_.cleanup_rounds;
  std::vector<std::pair<BlockId, JobId>> dead;
  for (const auto& [block, state] : blocks_) {
    for (const JobId job : state.jobs) {
      if (liveness_ == nullptr || !liveness_->is_job_running(job)) {
        dead.emplace_back(block, job);
      }
    }
  }
  std::sort(dead.begin(), dead.end());
  for (const auto& [block, job] : dead) {
    ++stats_.references_reaped;
    remove_reference(block, job, /*missed_read=*/false);
  }
  return !dead.empty();
}

void IgnemSlave::on_master_failure() {
  // Match the new master's empty state (§III-A5).
  purge_all();
}

bool IgnemSlave::purge_block(BlockId block) {
  const auto it = blocks_.find(block);
  if (it == blocks_.end()) return false;
  if (it->second.phase == Phase::kMigrating) {
    // In-flight page-in: on_migration_complete verifies the source and
    // aborts the commit itself.
    return false;
  }
  const bool had_copy = it->second.phase == Phase::kInMemory;
  drop_block(block);
  maybe_start();  // the queue may have been memory-stalled
  return had_copy;
}

void IgnemSlave::abort_migration() {
  if (!current_.has_value()) return;
  datanode_.primary_device().abort(current_->transfer);
  // A failed DataNode process already wiped the pool, reservation included
  // (DataNode::fail()); otherwise the reservation goes back here.
  BufferCache& pool = datanode_.cache();
  if (pool.reserved() >= current_->bytes) {
    pool.cancel_reservation(current_->bytes);
  }
  if (trace_ != nullptr) {
    // detail=1 marks an aborted (not finished) migration.
    trace_->emit(TraceEventType::kMigrationComplete, datanode_.id(),
                 current_->block, JobId::invalid(), current_->bytes, 1);
  }
  current_.reset();
}

void IgnemSlave::purge_all() {
  // Abort the in-flight migration, unlock everything, and drop every
  // reference.
  abort_migration();
  for (const auto& [block, state] : blocks_) {
    if (state.phase == Phase::kInMemory) {
      datanode_.cache().unlock(block);
      ++stats_.evictions;
    }
  }
  reset();
}

void IgnemSlave::reset() {
  abort_migration();
  wake_pending_ = false;
  blocks_.clear();
  while (queue_.pop().has_value()) {
  }
  // Unlocking is the caller's: DataNode::fail() reclaims the whole pool,
  // and purge_all() unlocks each resident block first.
}

static_assert(sizeof(SlaveStats) == 7 * sizeof(std::uint64_t),
              "name the new SlaveStats field in IgnemSlave::add_counters");

void IgnemSlave::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["ignem.migrations_completed"] += stats_.migrations_completed;
  counters["ignem.bytes_migrated"] +=
      static_cast<std::uint64_t>(stats_.bytes_migrated);
  counters["ignem.commands_received"] += stats_.commands_received;
  counters["ignem.commands_discarded_missed_read"] +=
      stats_.commands_discarded_missed_read;
  counters["ignem.evictions"] += stats_.evictions;
  counters["ignem.cleanup_rounds"] += stats_.cleanup_rounds;
  counters["ignem.references_reaped"] += stats_.references_reaped;
}

}  // namespace ignem
