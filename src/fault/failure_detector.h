// FailureDetector: missed-heartbeat liveness for the DFS control plane.
//
// Models the paper's §III-A5 assumption that server failure is *detected*
// through HDFS heartbeats, not announced. The detector owns no heartbeat
// stream: it hears each node's one heartbeat (the ResourceManager's
// NodeManager beat, which the Testbed forwards through `on_heartbeat`)
// and records it with the NameNode. `check`, which the Testbed runs every
// kLivenessCheckInterval right after the RM's own scan, declares dead each
// node silent past the liveness timeout (and grace), firing the
// `on_node_dead` hook (wired by Testbed to re-replication and Ignem
// migration rerouting). A beat from a declared-dead node readmits it via
// `on_node_rejoined` (restart, or a spurious death under a heartbeat delay
// or partition).
//
// Constructed only when fault tolerance is enabled.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "dfs/namenode.h"
#include "metrics/registry.h"
#include "net/control_plane.h"
#include "net/rpc.h"
#include "obs/trace_recorder.h"
#include "sim/simulator.h"

namespace ignem {

/// Dead after kLivenessTimeout of silence (net/control_plane.h).
struct FailureDetectorConfig {
  /// Suspicion grace window: a node silent past kLivenessTimeout is first
  /// marked *suspect* (kNodeSuspect, once per silence episode) and only
  /// declared dead once the silence exceeds kLivenessTimeout + grace. A
  /// beat inside the window clears the suspicion with no recovery storm.
  /// Zero (the default) keeps the legacy declare-on-first-expiry behaviour
  /// and its traces bit-identical.
  Duration suspicion_grace = Duration::zero();
};

class FailureDetector {
 public:
  FailureDetector(Simulator& sim, NameNode& namenode,
                  FailureDetectorConfig config);

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// A heartbeat from `node` reached the control plane: records it with
  /// the NameNode, clears suspicion, and readmits a declared-dead node.
  void on_heartbeat(NodeId node);

  /// One liveness scan: suspects or declares dead every node silent past
  /// kLivenessTimeout (plus the suspicion grace).
  void check();

  /// Fired once per detected death / rejoin (never both pending at once).
  void set_on_node_dead(std::function<void(NodeId)> hook) {
    on_node_dead_ = std::move(hook);
  }
  void set_on_node_rejoined(std::function<void(NodeId)> hook) {
    on_node_rejoined_ = std::move(hook);
  }

  /// Emits kFaultDetectedDead / kRecoverNodeRejoin with detail = 0
  /// (NameNode-side detection).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// The routed control plane, if any. Beats travel on it, so a node
  /// declared dead while it cannot reach the control node was silenced by
  /// the cut (false_dead_control_total). Null — the default — for direct
  /// beats.
  void set_rpc_router(RpcRouter* router) { router_ = router; }

  /// Wires the detection-latency histogram ("fault.detection_latency_us":
  /// silence duration — now minus the dead node's last heartbeat — at the
  /// moment of declaration). Null disables; recording is passive.
  void set_metrics_registry(MetricsRegistry* registry) {
    detection_latency_ =
        registry == nullptr
            ? nullptr
            : &registry->histogram("fault.detection_latency_us");
  }

  /// Declarations of death whose target process was in fact alive — the
  /// cost of conflating silence (partition, heartbeat delay) with failure.
  std::uint64_t false_dead_total() const { return false_dead_total_; }

  /// The subset of false_dead_total caused solely by a severed *control*
  /// link: the node's process was up but its beats could not reach the
  /// control node (routed mode only; always zero otherwise).
  std::uint64_t false_dead_control_total() const {
    return false_dead_control_total_;
  }

  /// Adds false_dead_total to `counters` as detector.false_dead_total and,
  /// on a routed control plane only, false_dead_control_total as
  /// detector.false_dead_control_cut.
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;

  bool is_suspect(NodeId node) const {
    return suspected_[static_cast<std::size_t>(node.value())];
  }

 private:
  Simulator& sim_;
  NameNode& namenode_;
  FailureDetectorConfig config_;
  TraceRecorder* trace_ = nullptr;
  RpcRouter* router_ = nullptr;
  std::function<void(NodeId)> on_node_dead_;
  std::function<void(NodeId)> on_node_rejoined_;
  HistogramMetric* detection_latency_ = nullptr;
  std::uint64_t false_dead_total_ = 0;
  std::uint64_t false_dead_control_total_ = 0;
  std::vector<bool> suspected_;  // index == node; only set under grace > 0
};

}  // namespace ignem
