#include "integrity/integrity_manager.h"

#include <algorithm>

#include "common/check.h"

namespace ignem {

void IntegrityManager::report(NodeId node, BlockId block, bool cached,
                              CorruptionSource source) {
  const Bytes bytes = namenode_.block(block).size;
  if (cached) {
    // The locked in-memory copy is bad; the disk replica (if it exists and
    // is clean) keeps serving. Purge the copy so no further read hits it.
    ++stats_.cache_corrupt_detected;
    if (trace_ != nullptr) {
      trace_->emit(TraceEventType::kCorruptionDetected, node, block,
                   JobId::invalid(), bytes,
                   static_cast<std::int64_t>(source), 1.0);
    }
    if (namenode_.datanode(node)->purge_cached_copy(block)) {
      ++stats_.cache_copies_purged;
    }
    return;
  }
  // Stored-replica corruption. Dedupe against the NameNode's mark state:
  // a reader and the scrubber can trip over the same replica, and a replica
  // already invalidated (no longer in the namespace) needs no handling.
  const auto& replicas = namenode_.block(block).replicas;
  if (std::find(replicas.begin(), replicas.end(), node) == replicas.end()) {
    return;
  }
  if (namenode_.is_replica_corrupt(block, node)) return;
  ++stats_.disk_corrupt_detected;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kCorruptionDetected, node, block,
                 JobId::invalid(), bytes, static_cast<std::int64_t>(source),
                 0.0);
  }
  namenode_.mark_replica_corrupt(block, node);
  replication_.handle_corrupt_replica(block);
  // The node can no longer serve this block at all (live_locations excludes
  // marked replicas), so a cached copy there — however clean — is dead
  // weight; drop it and any migration state pointing at it.
  if (namenode_.datanode(node)->purge_cached_copy(block)) {
    ++stats_.cache_copies_purged;
  }
  if (on_disk_corrupt_) on_disk_corrupt_(block, node);
}

static_assert(sizeof(IntegrityStats) == 3 * sizeof(std::uint64_t),
              "name the new IntegrityStats field in "
              "IntegrityManager::add_counters");

void IntegrityManager::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["integrity.disk_corrupt_detected"] += stats_.disk_corrupt_detected;
  counters["integrity.cache_corrupt_detected"] +=
      stats_.cache_corrupt_detected;
  counters["integrity.cache_copies_purged"] += stats_.cache_copies_purged;
}

}  // namespace ignem
