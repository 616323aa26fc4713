#include "obs/invariant_checker.h"

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
  switch (event.type) {
    case TraceEventType::kReplicaAdd: {
      const auto [it, inserted] = blocks_[event.block].insert(event.node);
      (void)it;
      if (!inserted) {
        std::ostringstream os;
        os << "node " << event.node << " already holds a replica of block "
           << event.block;
        violate(event, os.str(), out);
      }
      break;
    }
    case TraceEventType::kReplicaInvalidate: {
      const auto it = blocks_.find(event.block);
      if (it == blocks_.end() || it->second.erase(event.node) == 0) {
        std::ostringstream os;
        os << "node " << event.node
           << " invalidated a replica it never held of block " << event.block;
        violate(event, os.str(), out);
      }
      break;
    }
    default:
      break;
  }
}

std::size_t ReplicaAccountingRule::replica_count(BlockId block) const {
  const auto it = blocks_.find(block);
  return it == blocks_.end() ? 0 : it->second.size();
}

bool ReplicaAccountingRule::has_replica(BlockId block, NodeId node) const {
  const auto it = blocks_.find(block);
  return it != blocks_.end() && it->second.contains(node);
}

// ---------------------------------------------------------------------------

void ReadProvenanceRule::check(const TraceEvent& event,
                               std::vector<InvariantViolation>& out) {
  switch (event.type) {
    case TraceEventType::kReplicaAdd:
      replicas_[event.block].insert(event.node);
      break;
    case TraceEventType::kReplicaInvalidate:
      // The on-disk copy is gone; any later read there is a provenance bug.
      replicas_[event.block].erase(event.node);
      break;
    case TraceEventType::kNodeDead:
      dead_nodes_.insert(event.node);
      break;
    case TraceEventType::kNodeAlive:
      dead_nodes_.erase(event.node);
      break;
    case TraceEventType::kBlockReadStart: {
      const auto it = replicas_.find(event.block);
      if (it == replicas_.end() || !it->second.contains(event.node)) {
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
  switch (event.type) {
    case TraceEventType::kCacheInit:
      capacity_[event.node] = event.bytes;
      return;
    case TraceEventType::kCacheLock:
    case TraceEventType::kCacheUnlock:
    case TraceEventType::kCacheReserve:
    case TraceEventType::kCacheCommit:
    case TraceEventType::kCacheCancel:
      break;
    default:
      return;
  }
  const Bytes used = event.detail;
  if (used < 0) {
    violate(event, "locked-pool usage went negative", out);
    return;
  }
  const auto it = capacity_.find(event.node);
  if (it != capacity_.end() && used > it->second) {
    std::ostringstream os;
    os << "locked pool on node " << event.node << " holds " << used
       << " bytes, over its capacity of " << it->second;
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

void TierResidencyRule::check(const TraceEvent& event,
                              std::vector<InvariantViolation>& out) {
  switch (event.type) {
    case TraceEventType::kTierInit: {
      const std::size_t tier = static_cast<std::size_t>(event.detail);
      capacity_[{event.node, tier}] = event.bytes;
      auto [it, inserted] = home_.try_emplace(event.node, tier);
      if (!inserted && tier > it->second) it->second = tier;
      return;
    }
    case TraceEventType::kFaultNodeCrash:
      // The OS reclaims every pool on the node.
      std::erase_if(residency_,
                    [&](const auto& e) { return e.first.first == event.node; });
      for (auto& [key, used] : occupancy_) {
        if (key.first == event.node) used = 0;
      }
      return;
    case TraceEventType::kTierPromote:
    case TraceEventType::kTierDemote:
      break;
    default:
      return;
  }
  if (!event.block.valid()) return;  // a byte-level move, not a copy
  const std::size_t from = static_cast<std::size_t>(event.detail >> 8);
  const std::size_t to = static_cast<std::size_t>(event.detail & 0xff);
  const auto home_it = home_.find(event.node);
  const std::size_t home =
      home_it == home_.end() ? std::size_t{0} : home_it->second;
  const auto key = std::make_pair(event.node, event.block);
  const auto res = residency_.find(key);

  const auto leave = [&](std::size_t tier, Bytes bytes) {
    auto& used = occupancy_[{event.node, tier}];
    used = used >= bytes ? used - bytes : 0;
  };
  const auto arrive = [&](std::size_t tier) {
    const Bytes used = occupancy_[{event.node, tier}] += event.bytes;
    const auto cap = capacity_.find({event.node, tier});
    if (cap != capacity_.end() && cap->second > 0 && used > cap->second) {
      std::ostringstream os;
      os << "tier " << tier << " on node " << event.node << " holds " << used
         << " bytes, over its capacity of " << cap->second;
      violate(event, os.str(), out);
    }
  };

  if (event.type == TraceEventType::kTierPromote) {
    if (to >= from) {
      violate(event, "promote does not move the copy to a faster tier", out);
      return;
    }
    if (res != residency_.end() && res->second.first != from) {
      std::ostringstream os;
      os << "block " << event.block << " promoted from tier " << from
         << " but its copy on node " << event.node << " lives in tier "
         << res->second.first;
      violate(event, os.str(), out);
    } else if (res == residency_.end() && from != home) {
      std::ostringstream os;
      os << "block " << event.block << " promoted from pool tier " << from
         << " on node " << event.node << " where it holds no copy";
      violate(event, os.str(), out);
    }
    if (res != residency_.end()) leave(res->second.first, res->second.second);
    residency_[key] = {to, event.bytes};
    arrive(to);
    return;
  }

  // kTierDemote.
  if (to <= from) {
    violate(event, "demote does not move the copy to a slower tier", out);
    return;
  }
  if (res == residency_.end() || res->second.first != from) {
    std::ostringstream os;
    os << "block " << event.block << " demoted from tier " << from
       << " on node " << event.node << " but its copy lives in "
       << (res == residency_.end() ? std::string("no pool tier")
                                   : "tier " + std::to_string(
                                                   res->second.first));
    violate(event, os.str(), out);
  }
  if (res != residency_.end()) {
    leave(res->second.first, res->second.second);
    residency_.erase(res);
  }
  if (to < home) {
    residency_[key] = {to, event.bytes};
    arrive(to);
  }
}

// ---------------------------------------------------------------------------

InvariantChecker::InvariantChecker(bool install_default_rules) {
  if (!install_default_rules) return;
  add_rule(std::make_unique<MonotoneTimeRule>());
  auto replica_rule = std::make_unique<ReplicaAccountingRule>();
  replica_rule_ = replica_rule.get();
  add_rule(std::move(replica_rule));
  add_rule(std::make_unique<ReadProvenanceRule>());
  add_rule(std::make_unique<BandwidthConservationRule>());
  add_rule(std::make_unique<CacheCapacityRule>());
  add_rule(std::make_unique<SingleMigrationRule>());
  add_rule(std::make_unique<QueueIntegrityRule>());
  add_rule(std::make_unique<HotPromotionRule>());
  add_rule(std::make_unique<NodeDownRule>());
  add_rule(std::make_unique<CorruptReadRule>());
  add_rule(std::make_unique<TierResidencyRule>());
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
