// ReplicationManager: restores the replication factor after server failure.
//
// The paper's slave-failure handling (§III-A5) leans on HDFS semantics:
// when a whole server fails, the file system removes it from the namespace
// map and re-replicates the blocks it held. This component implements that
// path: it walks the failed node's own replica table, in ascending block
// id, for blocks left under-replicated, then copies each from a surviving
// replica to a fresh node over the network, throttled so repair traffic
// does not swamp foreground reads.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_set>

#include "common/ids.h"
#include "common/rate_limiter.h"
#include "common/rng.h"
#include "dfs/namenode.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace ignem {

struct ReplicationStats {
  std::uint64_t blocks_scheduled = 0;
  std::uint64_t blocks_repaired = 0;
  std::uint64_t blocks_unrepairable = 0;   ///< No live source or target.
  std::uint64_t corrupt_invalidated = 0;   ///< Corrupt replicas deleted.
  std::uint64_t repairs_throttled = 0;     ///< Copies delayed by the limiter.
  std::uint64_t excess_deleted = 0;        ///< Over-replicated copies dropped
                                           ///< by rejoin reconciliation.
  std::uint64_t repairs_discarded = 0;     ///< In-flight copies dropped at
                                           ///< commit: a rejoin already
                                           ///< restored the factor.
  Bytes bytes_repaired = 0;                ///< Total re-replication traffic.
};

class ReplicationManager {
 public:
  /// `max_concurrent` bounds cluster-wide in-flight repairs (HDFS throttles
  /// re-replication for the same reason Ignem paces migration).
  ReplicationManager(Simulator& sim, NameNode& namenode, Network& network,
                     Rng rng, int max_concurrent = 2);

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  /// Marks the node dead and queues repairs, in ascending block id, for
  /// every block it holds that dropped below the NameNode's replication
  /// factor and is not already queued. Safe to call for an already-dead node
  /// (only newly under-replicated blocks are queued); a repair whose source
  /// or target dies mid-copy is retried on a fresh pair after a short
  /// backoff.
  void handle_node_failure(NodeId node);

  /// Rejoin reconciliation: a falsely-declared node came back with its
  /// replicas intact, so blocks it holds may now exceed the replication
  /// factor. Deletes excess copies (kExcessReplicaDeleted), preferring to
  /// keep the rejoined node's copy and drop the youngest repair copies
  /// elsewhere. Walks the node's replica table in ascending block id.
  void handle_node_rejoin(NodeId node);

  /// Queues repair for a block with a corrupt-marked replica. The corrupt
  /// copies are invalidated only once a verified live source exists (never
  /// delete the last copy, however bad); with no good copy anywhere the
  /// block counts as unrepairable and the marks stay, so readers keep
  /// failing rather than silently consuming rot.
  void handle_corrupt_replica(BlockId block);

  const ReplicationStats& stats() const { return stats_; }
  /// Adds every ReplicationStats field to `counters` under its report name
  /// (replication.*).
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;
  std::size_t pending() const { return queue_.size(); }
  /// Blocks waiting for a repair slot, in the order repair takes them.
  const std::deque<BlockId>& queue() const { return queue_; }
  int in_flight() const { return in_flight_; }

  /// Emits kRepairStart/kRepairComplete around each repair copy.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Paces repair copies (recovery-storm control): each copy reserves its
  /// bytes before starting and waits out any non-conforming delay while
  /// holding its concurrency slot. Null (the default) starts copies
  /// immediately — the historical path, byte-identical.
  void set_rate_limiter(RateLimiter* limiter) { limiter_ = limiter; }

  /// Routes each repair order (NameNode -> source DataNode) through the
  /// control plane: while the control link is cut the order cannot land,
  /// so the repair requeues after a delay — repairs *pause* during the
  /// partition instead of proceeding on ghost state. Null — the default —
  /// keeps direct orders.
  void set_rpc_router(RpcRouter* router) { router_ = router; }

 private:
  void pump();
  void repair(BlockId block);
  /// Ships the repair order to the source (routed when a router is wired),
  /// after source/target are chosen and any throttle delay has elapsed.
  void start_copy(BlockId block, NodeId source, NodeId target, Bytes bytes);
  /// The actual copy pipeline, running on the source once the order landed.
  void do_start_copy(BlockId block, NodeId source, NodeId target, Bytes bytes);
  /// A repair attempt died mid-copy: put the block back after `kRetryDelay`.
  void retry_later(BlockId block);
  /// The NameNode's replication factor, as a replica count.
  std::size_t factor() const {
    return static_cast<std::size_t>(namenode_.replication());
  }

  static constexpr Duration kRetryDelay = Duration::seconds(1);

  Simulator& sim_;
  NameNode& namenode_;
  Network& network_;
  Rng rng_;
  TraceRecorder* trace_ = nullptr;
  RateLimiter* limiter_ = nullptr;
  RpcRouter* router_ = nullptr;
  int max_concurrent_;
  int in_flight_ = 0;
  bool pumping_ = false;  ///< Reentrancy guard: repair() paths call pump().
  std::deque<BlockId> queue_;
  std::unordered_set<BlockId> queued_;  ///< Queued or actively repairing.
  ReplicationStats stats_;
};

}  // namespace ignem
