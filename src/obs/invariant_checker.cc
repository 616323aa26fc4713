#include "obs/invariant_checker.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace ignem {

void InvariantRule::violate(const TraceEvent& event, std::string message,
                            std::vector<InvariantViolation>& out) {
  InvariantViolation v;
  v.rule = name();
  v.seq = event.seq;
  v.time = event.time;
  v.type = event.type;
  v.message = std::move(message);
  out.push_back(std::move(v));
}

// ---------------------------------------------------------------------------

void MonotoneTimeRule::check(const TraceEvent& event,
                             std::vector<InvariantViolation>& out) {
  if (seen_) {
    if (event.time < last_) {
      std::ostringstream os;
      os << "time ran backwards: " << event.time.count_micros() << "us after "
         << last_.count_micros() << "us";
      violate(event, os.str(), out);
    }
    if (event.seq <= last_seq_) {
      violate(event, "sequence numbers are not strictly increasing", out);
    }
  }
  seen_ = true;
  last_ = event.time;
  last_seq_ = event.seq;
}

// ---------------------------------------------------------------------------

void ReplicaAccountingRule::check(const TraceEvent& event,
                                  std::vector<InvariantViolation>& out) {
  const bool add = event.type == TraceEventType::kReplicaAdd;
  if (!add && event.type != TraceEventType::kReplicaInvalidate) return;
  IGNEM_CHECK_MSG(event.block.valid(), trace_event_name(event.type)
                                           << " without a block");
  const auto index = static_cast<std::size_t>(event.block.value());
  if (index >= blocks_.size()) blocks_.resize(index + 1);
  std::vector<NodeId>& nodes = blocks_[index];
  const auto it = std::find(nodes.begin(), nodes.end(), event.node);
  const bool held = it != nodes.end();
  if (add && !held) {
    nodes.push_back(event.node);
    return;
  }
  if (!add && held) {
    nodes.erase(it);
    return;
  }
  std::ostringstream os;
  if (add) {
    os << "node " << event.node << " already holds a replica of block "
       << event.block;
  } else {
    os << "node " << event.node
       << " invalidated a replica it never held of block " << event.block;
  }
  violate(event, os.str(), out);
}

std::size_t ReplicaAccountingRule::replica_count(BlockId block) const {
  const auto index = static_cast<std::size_t>(block.value());
  return block.valid() && index < blocks_.size() ? blocks_[index].size() : 0;
}

bool ReplicaAccountingRule::has_replica(BlockId block, NodeId node) const {
  const auto index = static_cast<std::size_t>(block.value());
  if (!block.valid() || index >= blocks_.size()) return false;
  const std::vector<NodeId>& nodes = blocks_[index];
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

// ---------------------------------------------------------------------------

void ReadProvenanceRule::check(const TraceEvent& event,
                               std::vector<InvariantViolation>& out) {
  switch (event.type) {
    case TraceEventType::kNodeDead:
      dead_nodes_.insert(event.node);
      break;
    case TraceEventType::kNodeAlive:
      dead_nodes_.erase(event.node);
      break;
    case TraceEventType::kBlockReadStart: {
      // An invalidated copy is gone from the map too: a later read there is
      // a provenance bug.
      if (!replicas_.has_replica(event.block, event.node)) {
        std::ostringstream os;
        os << "block " << event.block << " read on node " << event.node
           << " which never received a replica of it";
        violate(event, os.str(), out);
      }
      if (dead_nodes_.contains(event.node)) {
        std::ostringstream os;
        os << "block " << event.block << " read on dead node " << event.node;
        violate(event, os.str(), out);
      }
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------

void BandwidthConservationRule::check(const TraceEvent& event,
                                      std::vector<InvariantViolation>& out) {
  if (event.type != TraceEventType::kBandwidthChange) return;
  const double streams = static_cast<double>(event.detail);
  const double per_stream = event.value;
  const double capacity = static_cast<double>(event.bytes);
  if (per_stream < 0) {
    violate(event, "negative per-stream rate", out);
    return;
  }
  // Aggregate in use must fit under the channel's sequential capacity (the
  // degradation model only ever shrinks the aggregate). Tolerate fp residue.
  if (streams * per_stream > capacity * (1.0 + 1e-9)) {
    std::ostringstream os;
    os << streams << " streams at " << per_stream
       << " B/s oversubscribe a channel of " << capacity << " B/s";
    violate(event, os.str(), out);
  }
}

// ---------------------------------------------------------------------------

void CacheCapacityRule::check(const TraceEvent& event,
                              std::vector<InvariantViolation>& out) {
  if (event.type == TraceEventType::kCacheInit) {
    pools_[event.node].capacity = event.bytes;
    return;
  }
  Pool& pool = pools_[event.node];
  switch (event.type) {
    case TraceEventType::kCacheLock:
    case TraceEventType::kCacheCommit:
      if (!pool.resident.insert(event.block).second) {
        std::ostringstream os;
        os << "block " << event.block << " entered node " << event.node
           << "'s pool, which already holds a copy of it";
        violate(event, os.str(), out);
      }
      // A commit turns reserved bytes into locked ones.
      if (event.type == TraceEventType::kCacheLock) pool.used += event.bytes;
      break;
    case TraceEventType::kCacheUnlock:
      if (!event.block.valid()) {  // the whole pool reclaimed
        pool.resident.clear();
        pool.used = 0;
        break;
      }
      if (pool.resident.erase(event.block) == 0) {
        std::ostringstream os;
        os << "block " << event.block << " left node " << event.node
           << "'s pool, which holds no copy of it";
        violate(event, os.str(), out);
      }
      pool.used -= event.bytes;
      break;
    case TraceEventType::kCacheReserve:
      pool.used += event.bytes;
      break;
    case TraceEventType::kCacheCancel:
      pool.used -= event.bytes;
      break;
    default:
      return;
  }
  const Bytes used = event.detail;
  if (used != pool.used) {
    std::ostringstream os;
    os << "locked pool on node " << event.node << " reports " << used
       << " bytes in use, but its events add up to " << pool.used;
    violate(event, os.str(), out);
    pool.used = used;  // resync, so one bad event is reported once
  }
  if (used < 0) {
    violate(event, "locked-pool usage went negative", out);
    return;
  }
  if (pool.capacity.has_value() && used > *pool.capacity) {
    std::ostringstream os;
    os << "locked pool on node " << event.node << " holds " << used
       << " bytes, over its capacity of " << *pool.capacity;
    violate(event, os.str(), out);
  }
}

// ---------------------------------------------------------------------------

void SingleMigrationRule::check(const TraceEvent& event,
                                std::vector<InvariantViolation>& out) {
  switch (event.type) {
    case TraceEventType::kMigrationStart:
      if (!in_flight_.insert(event.node).second) {
        std::ostringstream os;
        os << "node " << event.node
           << " started a second concurrent migration (block " << event.block
           << ")";
        violate(event, os.str(), out);
      }
      break;
    case TraceEventType::kMigrationComplete:
      if (in_flight_.erase(event.node) == 0) {
        std::ostringstream os;
        os << "node " << event.node << " completed a migration of block "
           << event.block << " it never started";
        violate(event, os.str(), out);
      }
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------

void QueueIntegrityRule::check(const TraceEvent& event,
                               std::vector<InvariantViolation>& out) {
  const auto key = std::make_tuple(event.node, event.block, event.job);
  switch (event.type) {
    case TraceEventType::kMigrationEnqueue:
      ++queued_[key];
      break;
    case TraceEventType::kMigrationDequeue:
    case TraceEventType::kMigrationDrop: {
      auto it = queued_.find(key);
      if (it == queued_.end() || it->second <= 0) {
        std::ostringstream os;
        os << "migration of block " << event.block << " for job " << event.job
           << " left node " << event.node << "'s queue without entering it";
        violate(event, os.str(), out);
        break;
      }
      if (--it->second == 0) queued_.erase(it);
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------

void NodeDownRule::check(const TraceEvent& event,
                         std::vector<InvariantViolation>& out) {
  switch (event.type) {
    case TraceEventType::kFaultNodeCrash:
      down_.insert(event.node);
      return;
    case TraceEventType::kRecoverNodeRestart:
      down_.erase(event.node);
      return;
    // Activity that requires a live process on the node.
    case TraceEventType::kCacheLock:
    case TraceEventType::kCacheReserve:
    case TraceEventType::kCacheCommit:
    case TraceEventType::kContainerAllocate:
    case TraceEventType::kMigrationStart:
    case TraceEventType::kBlockReadStart:
      break;
    default:
      return;
  }
  if (down_.contains(event.node)) {
    std::ostringstream os;
    os << trace_event_name(event.type) << " on node " << event.node
       << " while it is crashed";
    violate(event, os.str(), out);
  }
}

// ---------------------------------------------------------------------------

void CorruptReadRule::check(const TraceEvent& event,
                            std::vector<InvariantViolation>& out) {
  const auto key = std::make_pair(event.node, event.block);
  switch (event.type) {
    case TraceEventType::kFaultBlockCorrupt:
      (event.detail == 1 ? cache_corrupt_ : disk_corrupt_).insert(key);
      return;
    case TraceEventType::kCorruptionDetected:
      // value=0 marks the disk replica in the NameNode; cached-copy
      // detections (value=1) are handled locally and never reach it.
      if (event.value == 0.0) marked_.insert(key);
      return;
    case TraceEventType::kReplicaInvalidate:
      disk_corrupt_.erase(key);
      marked_.erase(key);
      return;
    case TraceEventType::kCacheLock:
    case TraceEventType::kCacheCommit:
      // A freshly written copy starts clean.
      cache_corrupt_.erase(key);
      return;
    case TraceEventType::kCacheUnlock:
      if (event.block.valid()) {
        cache_corrupt_.erase(key);
      } else {
        // Aggregate pool clear (crash/eviction sweep) drops every copy.
        std::erase_if(cache_corrupt_,
                      [&](const auto& e) { return e.first == event.node; });
      }
      return;
    case TraceEventType::kFaultNodeCrash:
      // The OS reclaims the locked pool; disk rot survives the crash.
      std::erase_if(cache_corrupt_,
                    [&](const auto& e) { return e.first == event.node; });
      return;
    case TraceEventType::kBlockReadEnd: {
      const bool from_memory = event.detail == 1;
      if (from_memory ? cache_corrupt_.contains(key)
                      : disk_corrupt_.contains(key)) {
        std::ostringstream os;
        os << "clean read of block " << event.block << " served from node "
           << event.node << "'s corrupt "
           << (from_memory ? "cached copy" : "disk replica");
        violate(event, os.str(), out);
      }
      return;
    }
    case TraceEventType::kMigrationComplete:
      if (event.detail == 0 && disk_corrupt_.contains(key)) {
        std::ostringstream os;
        os << "node " << event.node
           << " committed a migration of block " << event.block
           << " fed by its corrupt disk replica";
        violate(event, os.str(), out);
      }
      return;
    case TraceEventType::kRepairStart:
      // node = repair source here.
      if (marked_.contains(key)) {
        std::ostringstream os;
        os << "repair of block " << event.block
           << " sourced from node " << event.node
           << " whose replica is marked corrupt";
        violate(event, os.str(), out);
      }
      return;
    default:
      return;
  }
}

// ---------------------------------------------------------------------------

void HotPromotionRule::check(const TraceEvent& event,
                             std::vector<InvariantViolation>& out) {
  switch (event.type) {
    case TraceEventType::kBlockReadEnd:
      ++reads_[{event.node, event.block}];
      break;
    case TraceEventType::kHotPromote: {
      const std::int64_t threshold = static_cast<std::int64_t>(event.value);
      const auto it = reads_.find({event.node, event.block});
      const std::int64_t observed = it == reads_.end() ? 0 : it->second;
      if (observed < threshold) {
        std::ostringstream os;
        os << "block " << event.block << " promoted on node " << event.node
           << " after " << observed << " observed reads (threshold "
           << threshold << ")";
        violate(event, os.str(), out);
      }
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------

InvariantChecker::InvariantChecker(bool install_default_rules) {
  if (!install_default_rules) return;
  add_rule(std::make_unique<MonotoneTimeRule>());
  auto replica_rule = std::make_unique<ReplicaAccountingRule>();
  replica_rule_ = replica_rule.get();
  add_rule(std::move(replica_rule));
  add_rule(std::make_unique<ReadProvenanceRule>(*replica_rule_));
  add_rule(std::make_unique<BandwidthConservationRule>());
  add_rule(std::make_unique<CacheCapacityRule>());
  add_rule(std::make_unique<SingleMigrationRule>());
  add_rule(std::make_unique<QueueIntegrityRule>());
  add_rule(std::make_unique<HotPromotionRule>());
  add_rule(std::make_unique<NodeDownRule>());
  add_rule(std::make_unique<CorruptReadRule>());
}

void InvariantChecker::add_rule(std::unique_ptr<InvariantRule> rule) {
  IGNEM_CHECK(rule != nullptr);
  rules_.push_back(std::move(rule));
}

void InvariantChecker::on_event(const TraceEvent& event) {
  for (const auto& rule : rules_) rule->check(event, violations_);
}

std::string InvariantChecker::report() const {
  std::ostringstream os;
  for (const InvariantViolation& v : violations_) {
    os << "[" << v.rule << "] seq=" << v.seq << " t=" << v.time.count_micros()
       << "us " << trace_event_name(v.type) << ": " << v.message << "\n";
  }
  return os.str();
}

}  // namespace ignem
