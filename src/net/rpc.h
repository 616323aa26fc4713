// Routed control-plane RPCs.
//
// PR 9 gave the data plane a reachability matrix, but control traffic still
// cheated: NameNode / ResourceManager / Ignem-master exchanges were direct
// calls with a fixed latency that succeeded even across a partition. The
// RpcRouter makes the control plane a first-class fault domain: the masters
// live on a rack-resident control node, and every master<->slave control
// RPC — heartbeats, container grants, migration commands, repair orders,
// rejoin block reports — pays one RPC latency per attempt, is delivered
// only if the reachability matrix permits it at delivery time, and retries
// with capped exponential backoff until a deadline or retry budget runs
// out. Callers receive a typed outcome and degrade gracefully (jobs keep
// running on cached/local data, migrations queue, repairs pause) instead of
// operating on ghost state across the cut.
//
// The router only exists when TestbedConfig::routed_control_plane is on;
// components keep their historical direct-call paths when it is absent, so
// default-off runs are event-for-event identical. The Testbed routes with
// RpcConfig's defaults.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/ids.h"
#include "common/units.h"
#include "net/control_plane.h"
#include "net/network.h"
#include "obs/trace_recorder.h"
#include "sim/simulator.h"

namespace ignem {

/// How a reliable control RPC resolved.
enum class RpcOutcome : std::uint8_t {
  kOk = 0,           ///< Delivered to the callee.
  kTimeout = 1,      ///< Deadline expired while retrying.
  kUnreachable = 2,  ///< Retry budget exhausted, every attempt found a cut.
};

struct RpcConfig {
  /// Where the NameNode/RM/IgnemMaster live; one endpoint of every call.
  NodeId control_node = NodeId(0);
  /// One-way latency paid by every attempt.
  Duration latency = kRpcLatency;
  /// Reliable calls give up (kTimeout) once the next attempt could not
  /// start before start + deadline.
  Duration deadline = Duration::seconds(2.0);
  /// Attempts beyond the first (kUnreachable once exhausted).
  int max_retries = 4;
  Duration backoff_base = Duration::millis(100);
  Duration backoff_cap = Duration::seconds(2.0);
};

struct RpcStats {
  std::uint64_t calls = 0;      ///< Reliable calls issued.
  std::uint64_t delivered = 0;  ///< Reliable calls that reached the callee.
  std::uint64_t retries = 0;    ///< Re-attempts after an unreachable send.
  std::uint64_t timeouts = 0;          ///< Terminal kTimeout outcomes.
  std::uint64_t unreachable = 0;       ///< Terminal kUnreachable outcomes.
  std::uint64_t oneways = 0;           ///< Datagrams sent (heartbeats).
  std::uint64_t oneways_dropped = 0;   ///< Datagrams lost to a cut.
};

class RpcRouter {
 public:
  using Action = std::function<void()>;
  /// Invoked only when a reliable call terminally fails (never with kOk);
  /// success is observed by `deliver` running on the callee.
  using FailureCallback = std::function<void(RpcOutcome)>;

  RpcRouter(Simulator& sim, Network& network, RpcConfig config);

  RpcRouter(const RpcRouter&) = delete;
  RpcRouter& operator=(const RpcRouter&) = delete;

  const RpcConfig& config() const { return config_; }
  NodeId control_node() const { return config_.control_node; }
  bool can_reach(NodeId from, NodeId to) const {
    return network_.reachable(from, to);
  }

  /// Fire-and-forget datagram (heartbeats): pays one latency; silently
  /// dropped (and counted) when the link is cut at send or delivery time.
  /// A lost beat is just lost — the next interval resends.
  void oneway(NodeId from, NodeId to, Action deliver);

  /// Reliable call: `deliver` runs on the callee after one latency when the
  /// matrix permits; otherwise the router retries with capped exponential
  /// backoff until the deadline or retry budget runs out, then reports the
  /// typed outcome through `on_fail` (which may be null) and emits
  /// kRpcTimeout.
  void call(NodeId from, NodeId to, Action deliver,
            FailureCallback on_fail = nullptr);

  const RpcStats& stats() const { return stats_; }
  /// Adds every RpcStats field to `counters` under its report name
  /// (rpc.*_total).
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;

  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 private:
  Duration backoff(int attempt) const;
  void attempt(NodeId from, NodeId to, Action deliver, FailureCallback on_fail,
               SimTime start, int attempt_no);
  void fail(NodeId to, RpcOutcome outcome, int attempts,
            const FailureCallback& on_fail);

  Simulator& sim_;
  Network& network_;
  RpcConfig config_;
  RpcStats stats_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace ignem
