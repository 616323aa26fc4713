#include "core/migration_queue.h"

#include <vector>

#include "common/check.h"

namespace ignem {

bool MigrationQueue::Order::operator()(const PendingMigration& a,
                                       const PendingMigration& b) const {
  switch (policy) {
    case QueueOrder::kSmallestJobFirst:
      if (a.job_input_bytes != b.job_input_bytes) {
        return a.job_input_bytes < b.job_input_bytes;
      }
      // Equal input sizes: job submission time breaks the tie (§III-A1);
      // arrival_seq encodes submission order.
      break;
    case QueueOrder::kLargestJobFirst:
      if (a.job_input_bytes != b.job_input_bytes) {
        return a.job_input_bytes > b.job_input_bytes;
      }
      break;
    case QueueOrder::kLifo:
      return a.arrival_seq > b.arrival_seq;
    case QueueOrder::kFifo:
      break;
  }
  if (a.arrival_seq != b.arrival_seq) return a.arrival_seq < b.arrival_seq;
  if (a.block != b.block) return a.block < b.block;
  return a.job < b.job;
}

const char* queue_order_name(QueueOrder policy) {
  switch (policy) {
    case QueueOrder::kSmallestJobFirst: return "smallest-job-first";
    case QueueOrder::kFifo: return "fifo";
    case QueueOrder::kLargestJobFirst: return "largest-job-first";
    case QueueOrder::kLifo: return "lifo";
  }
  return "?";
}

MigrationQueue::MigrationQueue(QueueOrder policy)
    : entries_(Order{policy}) {}

void MigrationQueue::emit(TraceEventType type, const PendingMigration& m) const {
  if (trace_ == nullptr) return;
  // detail = current queue depth (push/pop call this after mutating, so it
  // is the depth after the operation; drops report the pre-erase depth).
  trace_->emit(type, trace_node_, m.block, m.job, m.bytes,
               static_cast<std::int64_t>(entries_.size()));
}

void MigrationQueue::push(const PendingMigration& m) {
  IGNEM_CHECK(m.block.valid() && m.job.valid() && m.bytes > 0);
  if (entries_.insert(m).second) emit(TraceEventType::kMigrationEnqueue, m);
}

std::optional<PendingMigration> MigrationQueue::pop() {
  if (entries_.empty()) return std::nullopt;
  PendingMigration m = *entries_.begin();
  entries_.erase(entries_.begin());
  emit(TraceEventType::kMigrationDequeue, m);
  return m;
}

const PendingMigration* MigrationQueue::peek_ready(SimTime now) const {
  for (const PendingMigration& m : entries_) {
    if (m.not_before <= now) return &m;
  }
  return nullptr;
}

std::optional<PendingMigration> MigrationQueue::pop_ready(SimTime now) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->not_before > now) continue;
    PendingMigration m = *it;
    entries_.erase(it);
    emit(TraceEventType::kMigrationDequeue, m);
    return m;
  }
  return std::nullopt;
}

std::optional<SimTime> MigrationQueue::next_ready_time(SimTime now) const {
  std::optional<SimTime> earliest;
  for (const PendingMigration& m : entries_) {
    if (m.not_before <= now) continue;
    if (!earliest || m.not_before < *earliest) earliest = m.not_before;
  }
  return earliest;
}

std::size_t MigrationQueue::erase_block(BlockId block) {
  std::size_t removed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->block == block) {
      emit(TraceEventType::kMigrationDrop, *it);
      it = entries_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

}  // namespace ignem
