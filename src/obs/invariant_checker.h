// Live invariant checking over the event-trace stream.
//
// The InvariantChecker subscribes to a TraceRecorder and replays every
// event through a set of pluggable rules, each asserting one of the
// paper-level conservation laws the simulator must uphold:
//
//   MonotoneTimeRule          simulated time never runs backwards
//   ReplicaAccountingRule     a node never gains a replica it already holds;
//                             the event-derived replica map stays exact
//   ReadProvenanceRule        a block is never read on a node it was never
//                             written to (per ReplicaAccountingRule's map),
//                             nor on a namespace-dead node
//   BandwidthConservationRule per-stream shares never sum past a channel's
//                             sequential capacity
//   CacheCapacityRule         a locked-page pool never exceeds its capacity
//                             nor goes negative, holds at most one copy of
//                             a block, and reports the occupancy its own
//                             events add up to
//   SingleMigrationRule       a slave pages in at most one block at a time
//                             (the paper's anti-contention rule, §III-A1)
//   QueueIntegrityRule        every migration dequeue/drop matches a prior
//                             enqueue of the same (node, block, job)
//   HotPromotionRule          the hot-data baseline only promotes blocks
//                             whose observed read count reached its threshold
//   NodeDownRule              no locked bytes, containers, migrations, or
//                             reads on a node between its kFaultNodeCrash
//                             and kRecoverNodeRestart events
//   CorruptReadRule           once a copy is silently corrupted, no read
//                             completes cleanly from it, no migration
//                             commits it to memory, and no repair sources
//                             from a NameNode-marked replica
//
// Violations are collected, not thrown: a run can finish and report every
// breach, and tests can assert that crafted violating streams fire the
// right rule. The event-derived replica model is exposed so callers (e.g.
// Testbed) can cross-check it against live NameNode metadata.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/trace_recorder.h"

namespace ignem {

struct InvariantViolation {
  std::string rule;
  std::uint64_t seq = 0;  ///< Of the offending event.
  SimTime time;
  TraceEventType type = TraceEventType::kCount;
  std::string message;
};

/// One conservation law, fed the stream event by event.
class InvariantRule {
 public:
  virtual ~InvariantRule() = default;
  virtual const char* name() const = 0;
  virtual void check(const TraceEvent& event,
                     std::vector<InvariantViolation>& out) = 0;

 protected:
  /// Appends a violation for `event` under this rule's name.
  void violate(const TraceEvent& event, std::string message,
               std::vector<InvariantViolation>& out);
};

class MonotoneTimeRule : public InvariantRule {
 public:
  const char* name() const override { return "monotone_time"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override;

 private:
  SimTime last_;
  bool seen_ = false;
  std::uint64_t last_seq_ = 0;
};

/// The checker's one replica map, built from kReplicaAdd and
/// kReplicaInvalidate.
class ReplicaAccountingRule : public InvariantRule {
 public:
  const char* name() const override { return "replica_accounting"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override;

  std::size_t replica_count(BlockId block) const;
  bool has_replica(BlockId block, NodeId node) const;
  /// Indexed by block id (dense from 0): the nodes holding a replica, in
  /// the order they gained it. Ids past the end have never had one.
  const std::vector<std::vector<NodeId>>& blocks() const { return blocks_; }

 private:
  std::vector<std::vector<NodeId>> blocks_;
};

/// Reads `replicas`' map, so it must be added after that rule. It reads the
/// map only on kBlockReadStart, which the accounting rule ignores.
class ReadProvenanceRule : public InvariantRule {
 public:
  explicit ReadProvenanceRule(const ReplicaAccountingRule& replicas)
      : replicas_(replicas) {}
  const char* name() const override { return "read_provenance"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override;

 private:
  const ReplicaAccountingRule& replicas_;
  std::unordered_set<NodeId> dead_nodes_;
};

class BandwidthConservationRule : public InvariantRule {
 public:
  const char* name() const override { return "bandwidth_conservation"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override;
};

/// The locked pool, per node, from the kCache* stream alone: occupancy (each
/// event's detail) stays within [0, the kCacheInit capacity]; a lock or
/// commit brings in a block the pool does not hold and an unlock takes out
/// one it does; and each detail equals the occupancy that the lock, commit,
/// unlock, reserve and cancel events so far add up to. The aggregate unlock
/// (invalid block) of a pool reclaimed by a process failure empties the
/// node. A crash is not the reset point: the slave's cancel of its
/// in-flight reservation lands between kFaultNodeCrash and that unlock.
class CacheCapacityRule : public InvariantRule {
 public:
  const char* name() const override { return "cache_capacity"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override;

 private:
  struct Pool {
    std::optional<Bytes> capacity;  ///< Unknown until kCacheInit.
    Bytes used = 0;  ///< Derived occupancy, reservations included.
    std::unordered_set<BlockId> resident;
  };
  std::unordered_map<NodeId, Pool> pools_;
};

class SingleMigrationRule : public InvariantRule {
 public:
  const char* name() const override { return "single_migration"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override;

 private:
  std::unordered_set<NodeId> in_flight_;
};

class QueueIntegrityRule : public InvariantRule {
 public:
  const char* name() const override { return "queue_integrity"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override;

 private:
  std::map<std::tuple<NodeId, BlockId, JobId>, std::int64_t> queued_;
};

/// Fault lifecycle: between a node's kFaultNodeCrash and its
/// kRecoverNodeRestart the node's processes do not exist, so nothing may
/// lock memory, accept a container, start a migration, or serve a read
/// there. (Unlocks ARE allowed: the OS reclaims the dead process's locked
/// pool at crash time.)
class NodeDownRule : public InvariantRule {
 public:
  const char* name() const override { return "node_down"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override;

 private:
  std::unordered_set<NodeId> down_;
};

/// Data-integrity plane: a kFaultBlockCorrupt event poisons one copy (disk
/// replica when detail=0, cached copy when detail=1). From then on a clean
/// kBlockReadEnd from that copy's medium, a committed migration
/// (kMigrationComplete detail=0) fed by the poisoned disk replica, or a
/// kRepairStart sourced from a replica the NameNode has already marked
/// corrupt (kCorruptionDetected value=0) is a violation. The poison clears
/// only when the copy itself goes away: kReplicaInvalidate for the disk
/// replica; unlock/overwrite/node-crash for the cached copy.
class CorruptReadRule : public InvariantRule {
 public:
  const char* name() const override { return "corrupt_read"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override;

 private:
  std::set<std::pair<NodeId, BlockId>> disk_corrupt_;
  std::set<std::pair<NodeId, BlockId>> cache_corrupt_;
  std::set<std::pair<NodeId, BlockId>> marked_;  ///< NameNode knows.
};

class HotPromotionRule : public InvariantRule {
 public:
  const char* name() const override { return "hot_promotion"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override;

 private:
  std::map<std::pair<NodeId, BlockId>, std::int64_t> reads_;
};

class InvariantChecker : public TraceObserver {
 public:
  /// Installs the default rule set above. Pass false for an empty checker
  /// that tests populate rule by rule.
  explicit InvariantChecker(bool install_default_rules = true);

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  void add_rule(std::unique_ptr<InvariantRule> rule);

  void on_event(const TraceEvent& event) override;

  bool ok() const { return violations_.empty(); }
  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }

  /// The event-derived replica model (null without the default rules).
  /// ReadProvenanceRule reads the same one.
  const ReplicaAccountingRule* replica_model() const { return replica_rule_; }

  /// Human-readable one-per-line violation report (test diagnostics).
  std::string report() const;

 private:
  std::vector<std::unique_ptr<InvariantRule>> rules_;
  std::vector<InvariantViolation> violations_;
  const ReplicaAccountingRule* replica_rule_ = nullptr;
};

}  // namespace ignem
