#include "dfs/namenode.h"

#include <algorithm>

#include "common/check.h"

namespace ignem {

NameNode::NameNode(Rng rng, int replication, Bytes block_size, int rack_count)
    : rng_(rng),
      replication_(replication),
      block_size_(block_size),
      rack_count_(rack_count) {
  IGNEM_CHECK(replication >= 1);
  IGNEM_CHECK(block_size > 0);
  IGNEM_CHECK(rack_count >= 1);
}

int NameNode::rack_of(NodeId node) const {
  IGNEM_CHECK(node.valid());
  return static_cast<int>(node.value() % rack_count_);
}

void NameNode::register_datanode(DataNode* node) {
  IGNEM_CHECK(node != nullptr);
  IGNEM_CHECK_MSG(node->id().value() == static_cast<std::int64_t>(nodes_.size()),
                  "DataNodes must register in NodeId order");
  nodes_.push_back(node);
  last_heartbeat_.push_back(SimTime::zero());
}

void NameNode::record_heartbeat(NodeId id, SimTime now) {
  IGNEM_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < last_heartbeat_.size());
  last_heartbeat_[static_cast<std::size_t>(id.value())] = now;
}

std::vector<NodeId> NameNode::expired_nodes(SimTime now,
                                            Duration timeout) const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < last_heartbeat_.size(); ++i) {
    const NodeId id(static_cast<std::int64_t>(i));
    if (dead_nodes_.contains(id)) continue;
    if (now - last_heartbeat_[i] > timeout) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> NameNode::place_replicas(std::size_t count) {
  std::vector<NodeId> live = live_nodes();
  IGNEM_CHECK_MSG(!live.empty(), "no live DataNodes");
  count = std::min(count, live.size());

  auto pick_where = [&](std::vector<NodeId>& pool, auto&& pred) -> NodeId {
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pred(pool[i])) eligible.push_back(i);
    }
    if (eligible.empty()) return NodeId::invalid();
    const std::size_t idx = eligible[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(eligible.size()) - 1))];
    const NodeId node = pool[idx];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
    return node;
  };

  std::vector<NodeId> chosen;
  // First replica: uniform over live nodes.
  chosen.push_back(pick_where(live, [](NodeId) { return true; }));
  // Second replica: off the first one's rack (HDFS default), when racks
  // exist and another rack has a live node.
  if (chosen.size() < count) {
    const int first_rack = rack_of(chosen[0]);
    NodeId second = pick_where(
        live, [&](NodeId n) { return rack_of(n) != first_rack; });
    if (!second.valid()) second = pick_where(live, [](NodeId) { return true; });
    if (second.valid()) chosen.push_back(second);
  }
  // Third replica: same rack as the second (HDFS default), else anywhere.
  if (chosen.size() < count && chosen.size() >= 2) {
    const int second_rack = rack_of(chosen[1]);
    NodeId third = pick_where(
        live, [&](NodeId n) { return rack_of(n) == second_rack; });
    if (!third.valid()) third = pick_where(live, [](NodeId) { return true; });
    if (third.valid()) chosen.push_back(third);
  }
  // Replication factors beyond 3: uniform over the remainder.
  while (chosen.size() < count) {
    const NodeId extra = pick_where(live, [](NodeId) { return true; });
    if (!extra.valid()) break;
    chosen.push_back(extra);
  }
  return chosen;
}

FileId NameNode::create_file(const std::string& path, Bytes size) {
  IGNEM_CHECK(size > 0);
  IGNEM_CHECK_MSG(!paths_.contains(path), "duplicate path: " << path);
  const FileId id(next_file_++);
  FileInfo info;
  info.id = id;
  info.path = path;
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
  files_.emplace(id, std::move(info));
  return id;
}

const FileInfo& NameNode::file(FileId id) const {
  const auto it = files_.find(id);
  IGNEM_CHECK_MSG(it != files_.end(), "unknown file " << id.value());
  return it->second;
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
    if (dead_nodes_.contains(node)) continue;
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

DataNode* NameNode::datanode(NodeId id) const {
  IGNEM_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id.value())];
}

std::vector<NodeId> NameNode::live_nodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const DataNode* node : nodes_) {
    if (!dead_nodes_.contains(node->id())) out.push_back(node->id());
  }
  return out;
}

void NameNode::set_node_alive(NodeId id, bool alive) {
  IGNEM_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < nodes_.size());
  if (alive) {
    dead_nodes_.erase(id);
  } else {
    dead_nodes_.insert(id);
  }
  if (trace_ != nullptr) {
    trace_->emit(alive ? TraceEventType::kNodeAlive : TraceEventType::kNodeDead,
                 id);
  }
}

void NameNode::add_replica(BlockId block, NodeId node) {
  const auto it = blocks_.find(block);
  IGNEM_CHECK_MSG(it != blocks_.end(), "unknown block " << block.value());
  IGNEM_CHECK_MSG(!dead_nodes_.contains(node),
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
