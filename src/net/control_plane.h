// Fixed timings of the cluster's control plane.
//
// The paper evaluates one setting of each of these HDFS/YARN mechanisms:
// Ignem inherits HDFS heartbeat liveness for fault tolerance (§III-A5) and
// costs one RPC hop per command batch (§III-A6). They are constants of the
// model, not experiment axes. Both liveness monitors — the NameNode-side
// FailureDetector and the ResourceManager's — read one heartbeat per node
// (the NodeManager beat, every ClusterConfig::heartbeat_interval), run in
// one scan and use the same values.
#pragma once

#include "common/units.h"

namespace ignem {

/// One-way latency of one control-plane hop (client -> master, master <->
/// slave), direct or routed. Commands are batched per slave, so a request
/// costs O(1) hops per slave.
inline constexpr Duration kRpcLatency = Duration::millis(1);

/// Silence after which a node is declared dead, ~4 missed beats (HDFS uses
/// ~10 min; compressed so experiments stay short).
inline constexpr Duration kLivenessTimeout = Duration::seconds(12.0);

/// Period of the one scan that runs both liveness monitors.
inline constexpr Duration kLivenessCheckInterval = Duration::seconds(1.0);

}  // namespace ignem
