// NameNode: the file-system namespace and block map.
//
// Maps files to blocks and blocks to replica locations, tracks DataNode
// liveness, and places replicas at file-creation time. The Ignem master is
// hosted inside the NameNode process in the paper (§III-B); here it reads
// the same maps through this class's const API.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "dfs/block.h"
#include "dfs/datanode.h"
#include "net/topology.h"
#include "obs/trace_recorder.h"

namespace ignem {

struct FileInfo {
  FileId id;
  Bytes size = 0;
  std::vector<BlockId> blocks;
};

class NameNode {
 public:
  /// `replication` is the target replica count, capped by live node count.
  /// With `rack_count` > 1, nodes are assigned round-robin to racks
  /// (Topology::rack_for) and placement follows the HDFS default policy:
  /// first replica on a random node, second on a different rack, third on
  /// the second's rack — so a whole-rack failure never loses a 3-replicated
  /// block.
  NameNode(Rng rng, int replication = 3, Bytes block_size = kDefaultBlockSize,
           int rack_count = 1);

  NameNode(const NameNode&) = delete;
  NameNode& operator=(const NameNode&) = delete;

  /// Registers a DataNode. Nodes must be registered before files exist.
  void register_datanode(DataNode* node);

  /// Creates a file of `size` bytes split into block-size chunks, placing
  /// replicas on distinct live nodes, and registers the blocks with their
  /// DataNodes. Paths must be unique.
  FileId create_file(const std::string& path, Bytes size);

  const FileInfo& file(FileId id) const;
  FileId lookup(const std::string& path) const;  ///< invalid() if absent.
  const BlockInfo& block(BlockId id) const;

  /// Replica locations filtered to live nodes (paper §III-A5: dead servers
  /// leave the namespace map) and to copies not marked corrupt — a replica
  /// that failed a checksum pass is never handed to a reader again.
  std::vector<NodeId> live_locations(BlockId id) const;

  /// Corrupt-replica tracking (HDFS corruptReplicas analogue). A mark keeps
  /// the replica in the namespace — so the repair pipeline can see it — but
  /// out of live_locations; invalidation deletes it outright.
  void mark_replica_corrupt(BlockId block, NodeId node);
  bool is_replica_corrupt(BlockId block, NodeId node) const;
  std::vector<NodeId> corrupt_replicas(BlockId block) const;
  std::size_t corrupt_replica_count() const;

  /// Deletes a replica from the namespace and its DataNode (corrupt copy
  /// superseded by a verified one, or garbage-collected as unrecoverable).
  /// Emits kReplicaInvalidate.
  void invalidate_replica(BlockId block, NodeId node);

  DataNode* datanode(NodeId id) const;
  /// Live nodes in id order. A copy, so callers may change liveness while
  /// iterating it.
  std::vector<NodeId> live_nodes() const { return live_; }
  std::size_t node_count() const { return nodes_.size(); }

  /// Marks a whole server dead / alive again.
  void set_node_alive(NodeId id, bool alive);

  /// Rejects an invalid or unregistered id.
  bool is_node_alive(NodeId id) const { return alive_[slot(id)]; }

  /// Missed-heartbeat liveness (paper §III-A5 via HDFS semantics): the
  /// FailureDetector feeds each node's heartbeat in and periodically asks
  /// which nodes have gone silent. The NameNode itself stays sim-passive —
  /// it only bookkeeps; the detector drives detection and recovery.
  void record_heartbeat(NodeId id, SimTime now);

  /// Time of the node's most recent heartbeat (zero before the first one).
  /// The failure detector derives detection latency from it.
  SimTime last_heartbeat(NodeId id) const {
    return last_heartbeat_.at(static_cast<std::size_t>(id.value()));
  }

  /// Nodes not yet marked dead whose last heartbeat is older than
  /// `timeout` at `now`. A node that has never beaten counts from time
  /// zero.
  std::vector<NodeId> expired_nodes(SimTime now, Duration timeout) const;

  Bytes block_size() const { return block_size_; }
  std::size_t file_count() const { return files_.size(); }
  std::size_t block_count() const { return blocks_.size(); }

  /// Total bytes across a set of files; used by job submitters to size
  /// migration requests.
  Bytes total_bytes(const std::vector<FileId>& files) const;

  /// All blocks in the namespace, in hash order (whole-namespace audits;
  /// node events walk the DataNode's own table instead).
  const std::unordered_map<BlockId, BlockInfo>& all_blocks() const {
    return blocks_;
  }

  /// Registers a new replica of `block` on `node` (re-replication). The
  /// node must be live and not already hold the block.
  void add_replica(BlockId block, NodeId node);

  /// Rack of a node (round-robin assignment, Topology::rack_for).
  int rack_of(NodeId node) const {
    return Topology::rack_for(node, rack_count_);
  }
  int rack_count() const { return rack_count_; }

  /// A copy of the placement generator: its next draw shows, without
  /// consuming anything, whether two placers used the same stream.
  Rng placement_rng() const { return rng_; }

  /// Emits kFileCreate and kNodeDead/kNodeAlive (replica adds are emitted
  /// node-side by the DataNodes).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 private:
  /// Index of a registered node in the per-node vectors; rejects an
  /// invalid or unregistered id.
  std::size_t slot(NodeId id) const;
  std::vector<NodeId> place_replicas(std::size_t count);

  Rng rng_;
  int replication_;
  Bytes block_size_;
  int rack_count_;
  TraceRecorder* trace_ = nullptr;

  std::vector<DataNode*> nodes_;                  // index == NodeId value
  std::vector<SimTime> last_heartbeat_;           // index == NodeId value
  // Live-node index, kept current by register_datanode and set_node_alive.
  // Placement draws over it without scanning every node.
  std::vector<bool> alive_;                       // index == NodeId value
  std::vector<NodeId> live_;                      // ascending ids
  std::vector<std::vector<NodeId>> rack_live_;    // per rack, ascending ids
  std::vector<FileInfo> files_;  // index == FileId value
  std::unordered_map<std::string, FileId> paths_;
  std::unordered_map<BlockId, BlockInfo> blocks_;
  // Ordered so repair iterates corrupt replicas deterministically.
  std::map<BlockId, std::set<NodeId>> corrupt_;
  std::int64_t next_block_ = 0;
};

}  // namespace ignem
