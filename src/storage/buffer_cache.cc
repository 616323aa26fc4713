#include "storage/buffer_cache.h"

#include <algorithm>

namespace ignem {

BufferCache::BufferCache(Bytes capacity) : capacity_(capacity) {
  IGNEM_CHECK(capacity >= 0);
}

void BufferCache::track_peak() {
  peak_used_ = std::max(peak_used_, used_ + reserved_);
}

void BufferCache::set_trace(TraceRecorder* trace, NodeId node) {
  trace_ = trace;
  trace_node_ = node;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kCacheInit, trace_node_, BlockId::invalid(),
                 JobId::invalid(), capacity_);
  }
}

void BufferCache::emit(TraceEventType type, BlockId block, Bytes bytes) const {
  if (trace_ == nullptr) return;
  // detail carries the pool's occupancy after the operation so the
  // CacheCapacityRule can check it against kCacheInit's capacity.
  trace_->emit(type, trace_node_, block, JobId::invalid(), bytes,
               used_ + reserved_);
}

bool BufferCache::lock(BlockId block, Bytes bytes) {
  IGNEM_CHECK(block.valid());
  IGNEM_CHECK(bytes >= 0);
  if (entries_.contains(block)) return true;
  if (used_ + reserved_ + bytes > capacity_) return false;
  entries_.emplace(block, bytes);
  corrupt_.erase(block);  // a fresh copy starts clean
  used_ += bytes;
  track_peak();
  ++stats_.promotes;
  emit(TraceEventType::kCacheLock, block, bytes);
  return true;
}

bool BufferCache::reserve(Bytes bytes) {
  IGNEM_CHECK(bytes >= 0);
  if (used_ + reserved_ + bytes > capacity_) return false;
  reserved_ += bytes;
  track_peak();
  emit(TraceEventType::kCacheReserve, BlockId::invalid(), bytes);
  return true;
}

void BufferCache::commit_reservation(BlockId block, Bytes bytes) {
  IGNEM_CHECK(block.valid());
  IGNEM_CHECK_MSG(reserved_ >= bytes, "committing more than reserved");
  const bool fresh = entries_.try_emplace(block, bytes).second;
  IGNEM_CHECK_MSG(fresh, "block " << block.value() << " already locked");
  reserved_ -= bytes;
  if (!corrupt_.empty()) corrupt_.erase(block);  // a fresh copy starts clean
  used_ += bytes;
  ++stats_.promotes;
  emit(TraceEventType::kCacheCommit, block, bytes);
}

void BufferCache::cancel_reservation(Bytes bytes) {
  IGNEM_CHECK_MSG(reserved_ >= bytes, "cancelling more than reserved");
  reserved_ -= bytes;
  emit(TraceEventType::kCacheCancel, BlockId::invalid(), bytes);
}

bool BufferCache::unlock(BlockId block) {
  const auto it = entries_.find(block);
  if (it == entries_.end()) return false;
  const Bytes bytes = it->second;
  used_ -= bytes;
  IGNEM_CHECK(used_ >= 0);
  entries_.erase(it);
  if (!corrupt_.empty()) corrupt_.erase(block);
  ++stats_.demotes;
  emit(TraceEventType::kCacheUnlock, block, bytes);
  return true;
}

void BufferCache::clear() {
  const Bytes dropped = used_ + reserved_;
  entries_.clear();
  corrupt_.clear();
  used_ = 0;
  reserved_ = 0;
  if (dropped > 0) emit(TraceEventType::kCacheUnlock, BlockId::invalid(), dropped);
}

void BufferCache::mark_corrupt(BlockId block) {
  IGNEM_CHECK_MSG(entries_.contains(block),
                  "corrupting a block not locked in the pool");
  corrupt_.insert(block);
}

std::vector<BlockId> BufferCache::blocks_sorted() const {
  std::vector<BlockId> blocks;
  blocks.reserve(entries_.size());
  for (const auto& [block, bytes] : entries_) blocks.push_back(block);
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

}  // namespace ignem
