// NodeManager: per-node task slots.
#pragma once

#include "common/check.h"
#include "common/ids.h"

namespace ignem {

/// Tracks container slots on one worker. The ResourceManager allocates and
/// releases slots; actual task execution is driven by the MapReduce engine.
class NodeManager {
 public:
  NodeManager(NodeId id, int slots) : id_(id), total_slots_(slots) {
    IGNEM_CHECK(slots > 0);
  }

  NodeId id() const { return id_; }
  int free_slots() const { return alive_ ? total_slots_ - used_slots_ : 0; }

  void allocate() {
    IGNEM_CHECK(free_slots() > 0);
    ++used_slots_;
  }

  void release() {
    IGNEM_CHECK(used_slots_ > 0);
    --used_slots_;
  }

  bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  /// Crash bookkeeping: a declared-dead (or freshly restarted) node runs no
  /// containers, so all slots come back free.
  void reset_slots() { used_slots_ = 0; }

 private:
  NodeId id_;
  int total_slots_;
  int used_slots_ = 0;
  bool alive_ = true;
};

}  // namespace ignem
