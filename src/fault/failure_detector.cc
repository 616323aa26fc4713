#include "fault/failure_detector.h"

#include "common/check.h"

namespace ignem {

FailureDetector::FailureDetector(Simulator& sim, NameNode& namenode,
                                 FailureDetectorConfig config)
    : sim_(sim), namenode_(namenode), config_(config) {
  IGNEM_CHECK(namenode_.node_count() > 0);
  suspected_.resize(namenode_.node_count(), false);
}

void FailureDetector::on_heartbeat(NodeId node) {
  namenode_.record_heartbeat(node, sim_.now());
  suspected_[static_cast<std::size_t>(node.value())] = false;
  if (!namenode_.is_node_alive(node)) {
    // A beat from a declared-dead node: it restarted (block report rebuilds
    // nothing here — the NameNode kept its block map) or was only silenced.
    namenode_.set_node_alive(node, true);
    if (trace_ != nullptr) {
      trace_->emit(TraceEventType::kRecoverNodeRejoin, node,
                   BlockId::invalid(), JobId::invalid(), 0, /*detail=*/0);
    }
    if (on_node_rejoined_ != nullptr) on_node_rejoined_(node);
  }
}

void FailureDetector::check() {
  const SimTime now = sim_.now();
  for (const NodeId node : namenode_.expired_nodes(now, kLivenessTimeout)) {
    const Duration silence = now - namenode_.last_heartbeat(node);
    const auto i = static_cast<std::size_t>(node.value());
    if (config_.suspicion_grace > Duration::zero() &&
        silence <= kLivenessTimeout + config_.suspicion_grace) {
      // Inside the grace window: flag the node suspect (once per silence
      // episode) instead of triggering the full recovery machinery. A
      // partition that heals in time never costs a re-replication storm.
      if (!suspected_[i]) {
        suspected_[i] = true;
        if (trace_ != nullptr) {
          trace_->emit(TraceEventType::kNodeSuspect, node, BlockId::invalid(),
                       JobId::invalid(), 0, /*detail=*/0);
        }
      }
      continue;
    }
    suspected_[i] = false;
    if (detection_latency_ != nullptr) {
      detection_latency_->record(silence.count_micros());
    }
    DataNode* dn = namenode_.datanode(node);
    if (dn != nullptr && dn->alive()) {
      // The process is actually up — silence was a partition or heartbeat
      // fault. Count the false declaration; recovery proceeds regardless
      // (the detector cannot distinguish, that is the point).
      ++false_dead_total_;
      // In routed mode the cause is observable: a node declared dead while
      // its *control* link is cut was killed by the partition, not by any
      // node fault. detail = 1 marks these in the trace.
      std::int64_t cause = 0;
      if (router_ != nullptr &&
          !router_->can_reach(node, router_->control_node())) {
        ++false_dead_control_total_;
        cause = 1;
      }
      if (trace_ != nullptr) {
        trace_->emit(TraceEventType::kFalseDead, node, BlockId::invalid(),
                     JobId::invalid(), 0, /*detail=*/cause);
      }
    }
    if (trace_ != nullptr) {
      trace_->emit(TraceEventType::kFaultDetectedDead, node,
                   BlockId::invalid(), JobId::invalid(), 0, /*detail=*/0);
    }
    // The hook marks the node dead in the namespace (ReplicationManager
    // does it as part of handle_node_failure); without a hook, do it here
    // so detection is never silent.
    if (on_node_dead_ != nullptr) {
      on_node_dead_(node);
    } else {
      namenode_.set_node_alive(node, false);
    }
    IGNEM_CHECK_MSG(!namenode_.is_node_alive(node),
                    "on_node_dead hook must mark the node dead");
  }
}

void FailureDetector::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["detector.false_dead_total"] += false_dead_total_;
  if (router_ != nullptr) {
    counters["detector.false_dead_control_cut"] += false_dead_control_total_;
  }
}

}  // namespace ignem
