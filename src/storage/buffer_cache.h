// Locked-page pool: the destination of Ignem migrations.
//
// Models the OS buffer cache with mmap+mlock semantics used by the Ignem
// slave (§III-B1): a block locked into the pool is served to any reader on
// the node at RAM speed until explicitly unlocked. Capacity is the
// configurable migration-memory threshold (§III-B2). There is no implicit
// eviction — the Do-not-harm rule forbids it; callers decide what to unlock.
//
// The pool is the one owner of residency: it counts every copy that enters
// (lock, commit) or leaves (unlock) on the same lines that emit the
// kCacheLock/Commit/Unlock events, so the counts and the trace cannot
// disagree.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "obs/trace_recorder.h"

namespace ignem {

/// Copies that entered and left the pool. clear() moves no copy (the OS
/// reclaims a dead process's locks), so it counts neither.
struct PoolStats {
  std::uint64_t promotes = 0;  ///< New copies locked or committed.
  std::uint64_t demotes = 0;   ///< Copies unlocked.
};

class BufferCache {
 public:
  explicit BufferCache(Bytes capacity);

  /// Locks `bytes` of a block into the pool (the vmtouch preload, the
  /// instant-migration hypothetical). Returns false (no state change) if the
  /// block would overflow capacity. Locking an already-locked block is a
  /// no-op returning true; only a new copy counts as a promote.
  bool lock(BlockId block, Bytes bytes);

  /// Reserves capacity for an in-flight migration without making the block
  /// visible to readers (the data is not in memory yet). Pair with
  /// commit_reservation() or cancel_reservation().
  bool reserve(Bytes bytes);

  /// Converts a prior reservation into a visible locked block.
  void commit_reservation(BlockId block, Bytes bytes);

  /// Returns reserved capacity to the pool (aborted migration).
  void cancel_reservation(Bytes bytes);

  /// Unlocks a block, freeing its bytes; the durable disk replica persists.
  /// Returns false if not present.
  bool unlock(BlockId block);

  /// Drops everything (slave restart: the OS reclaims the process's locks).
  void clear();

  /// Flags the locked copy of `block` as silently corrupted (fault
  /// injection). The mark lives exactly as long as the copy: unlock, clear,
  /// or a fresh lock/commit of the block discards it.
  void mark_corrupt(BlockId block);
  bool is_corrupt(BlockId block) const {
    return !corrupt_.empty() && corrupt_.contains(block);
  }
  std::size_t corrupt_count() const { return corrupt_.size(); }

  /// Locked block ids in ascending order (deterministic fault-target picks).
  std::vector<BlockId> blocks_sorted() const;

  bool contains(BlockId block) const { return entries_.contains(block); }
  /// The bytes locked for `block`, or null when the pool holds no copy: one
  /// probe answers both whether a read is served from memory and its size.
  const Bytes* find(BlockId block) const {
    const auto it = entries_.find(block);
    return it == entries_.end() ? nullptr : &it->second;
  }
  Bytes used() const { return used_ + reserved_; }
  Bytes locked() const { return used_; }
  Bytes reserved() const { return reserved_; }
  Bytes capacity() const { return capacity_; }
  Bytes available() const { return capacity_ - used_ - reserved_; }
  std::size_t block_count() const { return entries_.size(); }
  Bytes peak_used() const { return peak_used_; }
  const PoolStats& stats() const { return stats_; }

  /// Emits kCacheInit now and kCacheLock/Unlock/Reserve/Commit/Cancel on
  /// every pool mutation; `node` attributes the pool to its owner.
  void set_trace(TraceRecorder* trace, NodeId node);

 private:
  void track_peak();
  void emit(TraceEventType type, BlockId block, Bytes bytes) const;

  Bytes capacity_;
  Bytes used_ = 0;
  Bytes reserved_ = 0;
  Bytes peak_used_ = 0;
  std::unordered_map<BlockId, Bytes> entries_;
  std::unordered_set<BlockId> corrupt_;
  PoolStats stats_;
  TraceRecorder* trace_ = nullptr;
  NodeId trace_node_;
};

}  // namespace ignem
