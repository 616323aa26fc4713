// Rack topology: which rack each node lives in.
//
// Topology::rack_for is the one rack-assignment rule (round-robin,
// node % rack_count). The NameNode's placement policy uses it too, so
// "off-rack" means the same thing to placement, repair targeting, and rack
// partitions. rack_count == 1 collapses to the single-rack cluster every
// earlier experiment assumed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace ignem {

class Topology {
 public:
  Topology(std::size_t node_count, int rack_count)
      : node_count_(node_count),
        rack_count_(rack_count < 1 ? 1 : rack_count) {
    IGNEM_CHECK(node_count > 0);
  }

  std::size_t node_count() const { return node_count_; }
  int rack_count() const { return rack_count_; }

  /// Rack of `node` in a cluster of `rack_count` racks: nodes are dealt
  /// round-robin, so rack r holds nodes r, r + rack_count, ...
  static int rack_for(NodeId node, int rack_count) {
    IGNEM_CHECK(node.valid() && rack_count >= 1);
    return static_cast<int>(node.value() % rack_count);
  }

  int rack_of(NodeId node) const {
    IGNEM_CHECK(node.valid() &&
                static_cast<std::size_t>(node.value()) < node_count_);
    return rack_for(node, rack_count_);
  }

  bool same_rack(NodeId a, NodeId b) const {
    return rack_of(a) == rack_of(b);
  }

  /// All nodes in `rack`, in ascending node order.
  std::vector<NodeId> rack_members(int rack) const {
    IGNEM_CHECK(rack >= 0 && rack < rack_count_);
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < node_count_; ++i) {
      NodeId node(static_cast<std::int64_t>(i));
      if (rack_of(node) == rack) members.push_back(node);
    }
    return members;
  }

 private:
  std::size_t node_count_;
  int rack_count_;
};

}  // namespace ignem
