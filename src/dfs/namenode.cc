#include "dfs/namenode.h"

#include <algorithm>

#include "common/check.h"

namespace ignem {
namespace {

/// The k-th node in id order of `pool` (ascending ids) that is not in
/// `taken` (ascending ids): each taken node the pool holds at or before the
/// candidate's position pushes the candidate one position on.
NodeId nth_untaken(const std::vector<NodeId>& pool, std::size_t k,
                   const std::vector<NodeId>& taken) {
  for (const NodeId node : taken) {
    const auto pos = std::lower_bound(pool.begin(), pool.end(), node);
    if (pos == pool.end() || *pos != node) continue;
    if (static_cast<std::size_t>(pos - pool.begin()) > k) break;
    ++k;
  }
  return pool[k];
}

/// The k-th node in id order of `pool` minus `minus`, a subset of it (both
/// ascending): the first position whose prefix holds k + 1 nodes outside
/// `minus`, found by binary search.
NodeId nth_outside(const std::vector<NodeId>& pool,
                   const std::vector<NodeId>& minus, std::size_t k) {
  std::size_t lo = k;
  std::size_t hi = std::min(pool.size() - 1, k + minus.size());
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto inside = static_cast<std::size_t>(
        std::upper_bound(minus.begin(), minus.end(), pool[mid]) -
        minus.begin());
    if (mid + 1 - inside > k) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return pool[lo];
}

}  // namespace

NameNode::NameNode(Rng rng, int replication, Bytes block_size, int rack_count)
    : rng_(rng),
      replication_(replication),
      block_size_(block_size),
      rack_count_(rack_count) {
  IGNEM_CHECK(replication >= 1);
  IGNEM_CHECK(block_size > 0);
  IGNEM_CHECK(rack_count >= 1);
  rack_live_.resize(static_cast<std::size_t>(rack_count));
}

void NameNode::register_datanode(DataNode* node) {
  IGNEM_CHECK(node != nullptr);
  const NodeId id = node->id();
  IGNEM_CHECK_MSG(id.value() == static_cast<std::int64_t>(nodes_.size()),
                  "DataNodes must register in NodeId order");
  nodes_.push_back(node);
  last_heartbeat_.push_back(SimTime::zero());
  // Ids arrive in increasing order, so every list stays ascending.
  alive_.push_back(true);
  live_.push_back(id);
  rack_live_[static_cast<std::size_t>(rack_of(id))].push_back(id);
}

std::size_t NameNode::slot(NodeId id) const {
  IGNEM_CHECK_MSG(id.valid() &&
                      static_cast<std::size_t>(id.value()) < nodes_.size(),
                  "unknown node " << id.value());
  return static_cast<std::size_t>(id.value());
}

void NameNode::record_heartbeat(NodeId id, SimTime now) {
  last_heartbeat_[slot(id)] = now;
}

std::vector<NodeId> NameNode::expired_nodes(SimTime now,
                                            Duration timeout) const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < last_heartbeat_.size(); ++i) {
    if (!alive_[i]) continue;
    if (now - last_heartbeat_[i] > timeout) {
      out.push_back(NodeId(static_cast<std::int64_t>(i)));
    }
  }
  return out;
}

std::vector<NodeId> NameNode::place_replicas(std::size_t count) {
  IGNEM_CHECK_MSG(!live_.empty(), "no live DataNodes");
  count = std::min(count, live_.size());
  std::vector<NodeId> chosen;  // pick order: the block's replica order
  std::vector<NodeId> taken;   // the same nodes, ascending
  chosen.reserve(count);
  taken.reserve(count);
  const auto take = [&](NodeId node) {
    chosen.push_back(node);
    taken.insert(std::upper_bound(taken.begin(), taken.end(), node), node);
  };
  // Every pick is one uniform draw over its eligible nodes, mapped to the
  // k-th of them in id order.
  const auto draw = [&](std::size_t eligible) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(eligible) - 1));
  };
  const auto any = [&] {
    return nth_untaken(live_, draw(live_.size() - taken.size()), taken);
  };

  // First replica: uniform over live nodes.
  take(any());
  // Second replica: off the first one's rack (HDFS default), when another
  // rack has a live node; else anywhere. The only node taken so far sits on
  // that rack, so no off-rack candidate needs skipping.
  if (chosen.size() < count) {
    const auto& first_rack =
        rack_live_[static_cast<std::size_t>(rack_of(chosen[0]))];
    const std::size_t off_rack = live_.size() - first_rack.size();
    take(off_rack > 0 ? nth_outside(live_, first_rack, draw(off_rack))
                      : any());
  }
  // Third replica: same rack as the second (HDFS default), else anywhere.
  if (chosen.size() < count) {
    const int rack = rack_of(chosen[1]);
    const auto& second_rack = rack_live_[static_cast<std::size_t>(rack)];
    const auto on_rack =
        second_rack.size() -
        static_cast<std::size_t>(std::count_if(
            taken.begin(), taken.end(),
            [&](NodeId node) { return rack_of(node) == rack; }));
    take(on_rack > 0 ? nth_untaken(second_rack, draw(on_rack), taken)
                     : any());
  }
  // Replication factors beyond 3: uniform over the remainder.
  while (chosen.size() < count) take(any());
  return chosen;
}

FileId NameNode::create_file(const std::string& path, Bytes size) {
  IGNEM_CHECK(size > 0);
  IGNEM_CHECK_MSG(!paths_.contains(path), "duplicate path: " << path);
  const FileId id(static_cast<std::int64_t>(files_.size()));
  FileInfo info;
  info.id = id;
  info.size = size;
  for (Bytes offset = 0; offset < size; offset += block_size_) {
    const Bytes block_bytes = std::min(block_size_, size - offset);
    const BlockId block_id(next_block_++);
    BlockInfo block;
    block.id = block_id;
    block.file = id;
    block.size = block_bytes;
    block.replicas = place_replicas(static_cast<std::size_t>(replication_));
    for (const NodeId node : block.replicas) {
      datanode(node)->add_block(block_id, block_bytes);
    }
    info.blocks.push_back(block_id);
    blocks_.emplace(block_id, std::move(block));
  }
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kFileCreate, NodeId::invalid(),
                 BlockId::invalid(), JobId::invalid(), size,
                 static_cast<std::int64_t>(info.blocks.size()));
  }
  paths_.emplace(path, id);
  files_.push_back(std::move(info));
  return id;
}

const FileInfo& NameNode::file(FileId id) const {
  IGNEM_CHECK_MSG(
      id.valid() && static_cast<std::size_t>(id.value()) < files_.size(),
      "unknown file " << id.value());
  return files_[static_cast<std::size_t>(id.value())];
}

FileId NameNode::lookup(const std::string& path) const {
  const auto it = paths_.find(path);
  return it == paths_.end() ? FileId::invalid() : it->second;
}

const BlockInfo& NameNode::block(BlockId id) const {
  const auto it = blocks_.find(id);
  IGNEM_CHECK_MSG(it != blocks_.end(), "unknown block " << id.value());
  return it->second;
}

std::vector<NodeId> NameNode::live_locations(BlockId id) const {
  std::vector<NodeId> out;
  const auto corrupt = corrupt_.find(id);
  for (const NodeId node : block(id).replicas) {
    if (!is_node_alive(node)) continue;
    if (corrupt != corrupt_.end() && corrupt->second.contains(node)) continue;
    out.push_back(node);
  }
  return out;
}

void NameNode::mark_replica_corrupt(BlockId block, NodeId node) {
  const auto& replicas = this->block(block).replicas;
  IGNEM_CHECK_MSG(
      std::find(replicas.begin(), replicas.end(), node) != replicas.end(),
      "marking corrupt a replica node " << node.value()
                                        << " does not hold of block "
                                        << block.value());
  corrupt_[block].insert(node);
}

bool NameNode::is_replica_corrupt(BlockId block, NodeId node) const {
  const auto it = corrupt_.find(block);
  return it != corrupt_.end() && it->second.contains(node);
}

std::vector<NodeId> NameNode::corrupt_replicas(BlockId block) const {
  const auto it = corrupt_.find(block);
  if (it == corrupt_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::size_t NameNode::corrupt_replica_count() const {
  std::size_t count = 0;
  for (const auto& [block, nodes] : corrupt_) count += nodes.size();
  return count;
}

void NameNode::invalidate_replica(BlockId block, NodeId node) {
  const auto it = blocks_.find(block);
  IGNEM_CHECK_MSG(it != blocks_.end(), "unknown block " << block.value());
  auto& replicas = it->second.replicas;
  const auto pos = std::find(replicas.begin(), replicas.end(), node);
  IGNEM_CHECK_MSG(pos != replicas.end(), "invalidating a replica node "
                                             << node.value()
                                             << " does not hold of block "
                                             << block.value());
  replicas.erase(pos);
  const auto marks = corrupt_.find(block);
  if (marks != corrupt_.end()) {
    marks->second.erase(node);
    if (marks->second.empty()) corrupt_.erase(marks);
  }
  datanode(node)->remove_block(block);
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kReplicaInvalidate, node, block,
                 JobId::invalid(), it->second.size);
  }
}

DataNode* NameNode::datanode(NodeId id) const { return nodes_[slot(id)]; }

void NameNode::set_node_alive(NodeId id, bool alive) {
  const std::size_t i = slot(id);
  if (alive_[i] != alive) {
    alive_[i] = alive;
    for (auto* list :
         {&live_, &rack_live_[static_cast<std::size_t>(rack_of(id))]}) {
      const auto pos = std::lower_bound(list->begin(), list->end(), id);
      if (alive) {
        list->insert(pos, id);
      } else {
        list->erase(pos);
      }
    }
  }
  if (trace_ != nullptr) {
    trace_->emit(alive ? TraceEventType::kNodeAlive : TraceEventType::kNodeDead,
                 id);
  }
}

void NameNode::add_replica(BlockId block, NodeId node) {
  const auto it = blocks_.find(block);
  IGNEM_CHECK_MSG(it != blocks_.end(), "unknown block " << block.value());
  IGNEM_CHECK_MSG(is_node_alive(node),
                  "cannot place replica on dead node " << node.value());
  auto& replicas = it->second.replicas;
  IGNEM_CHECK_MSG(
      std::find(replicas.begin(), replicas.end(), node) == replicas.end(),
      "node " << node.value() << " already holds block " << block.value());
  replicas.push_back(node);
  datanode(node)->add_block(block, it->second.size);
}

Bytes NameNode::total_bytes(const std::vector<FileId>& files) const {
  Bytes total = 0;
  for (const FileId id : files) total += file(id).size;
  return total;
}

}  // namespace ignem
