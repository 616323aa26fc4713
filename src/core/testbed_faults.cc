// The Testbed's FaultTarget half: each method translates one injected fault
// or recovery into its trace event and the calls on the components it
// touches. The wiring half is in testbed.cc.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "core/testbed.h"

namespace ignem {

namespace {

/// Effectively infinite at simulated bandwidths (~decades of transfer time):
/// a hog transfer never completes on its own; the end of the fault window
/// aborts it.
constexpr Bytes kHogBytes = Bytes{1} << 50;

int hog_streams(double severity) {
  return std::max(1, static_cast<int>(std::lround(severity)));
}

}  // namespace

void Testbed::emit_fault_event(TraceEventType type, NodeId node,
                               std::uint64_t detail) {
  if (trace_ != nullptr) {
    trace_->emit(type, node, BlockId::invalid(), JobId::invalid(), 0, detail);
  }
}

void Testbed::fail_node(NodeId node) {
  DataNode& dn = datanode(node);
  IGNEM_CHECK_MSG(dn.alive(),
                  "fail_node: node " << node.value() << " is already down");
  // Crash event first: the plug-in reset and cache reclamation in
  // DataNode::fail() emit events the NodeDownRule only permits on a down
  // node.
  emit_fault_event(TraceEventType::kFaultNodeCrash, node);
  dn.fail();
  rm_->halt_heartbeat(node);
}

void Testbed::restart_node(NodeId node) {
  DataNode& dn = datanode(node);
  IGNEM_CHECK_MSG(!dn.alive(),
                  "restart_node: node " << node.value() << " is not down");
  emit_fault_event(TraceEventType::kRecoverNodeRestart, node);
  dn.restart();
  // Re-registration is heartbeat-driven: the detector readmits the node
  // when its first post-restart beat lands. If a heartbeat-delay or
  // partition window is still open, the restarted node stays silent until
  // that window's own end lifts the last silencer.
  rm_->resume_heartbeat(node);
}

void Testbed::crash_master() {
  if (master_ == nullptr || master_->failed()) return;
  emit_fault_event(TraceEventType::kFaultMasterCrash, NodeId::invalid());
  master_->fail();
}

void Testbed::restart_master() {
  if (master_ == nullptr || !master_->failed()) return;
  master_->restart();
  emit_fault_event(TraceEventType::kRecoverMasterRestart, NodeId::invalid());
}

void Testbed::crash_slave(NodeId node) {
  IgnemSlave* slave = ignem_slave(node);
  if (slave == nullptr) return;
  DataNode& dn = datanode(node);
  if (!dn.alive()) return;  // the whole server is already down
  emit_fault_event(TraceEventType::kFaultSlaveCrash, node);
  // The slave shares the DataNode process (§III-B), so its crash resets it
  // and drops all locked memory; supervision restarts the process
  // immediately (a point fault), so only reads in flight at the crash
  // instant fail.
  dn.fail();
  dn.restart();
  emit_fault_event(TraceEventType::kRecoverSlaveRestart, node);
}

void Testbed::begin_disk_fail_stop(NodeId node) {
  emit_fault_event(TraceEventType::kFaultDiskFailStop, node);
  datanode(node).set_disk_failed(true);
}

void Testbed::end_disk_fail_stop(NodeId node) {
  datanode(node).set_disk_failed(false);
  emit_fault_event(TraceEventType::kRecoverDisk, node, /*detail=*/0);
}

void Testbed::begin_disk_fail_slow(NodeId node, double severity) {
  const int streams = hog_streams(severity);
  emit_fault_event(TraceEventType::kFaultDiskFailSlow, node,
                   static_cast<std::uint64_t>(streams));
  StorageDevice& device = datanode(node).primary_device();
  auto& hogs = disk_hogs_[node];
  for (int i = 0; i < streams; ++i) {
    hogs.push_back(device.read(kHogBytes, [] {}));
  }
}

void Testbed::end_disk_fail_slow(NodeId node) {
  StorageDevice& device = datanode(node).primary_device();
  for (const TransferHandle handle : disk_hogs_[node]) device.abort(handle);
  disk_hogs_.erase(node);
  emit_fault_event(TraceEventType::kRecoverDisk, node, /*detail=*/1);
}

void Testbed::begin_network_degrade(NodeId node, double severity) {
  const int streams = hog_streams(severity);
  emit_fault_event(TraceEventType::kFaultNetworkDegrade, node,
                   static_cast<std::uint64_t>(streams));
  SharedBandwidthResource& nic = network_->nic(node);
  auto& hogs = net_hogs_[node];
  for (int i = 0; i < streams; ++i) {
    hogs.push_back(nic.start(kHogBytes, [] {}));
  }
}

void Testbed::end_network_degrade(NodeId node) {
  SharedBandwidthResource& nic = network_->nic(node);
  for (const TransferHandle handle : net_hogs_[node]) nic.abort(handle);
  net_hogs_.erase(node);
  emit_fault_event(TraceEventType::kRecoverNetwork, node);
}

void Testbed::begin_heartbeat_delay(NodeId node) {
  emit_fault_event(TraceEventType::kFaultHeartbeatDelay, node);
  rm_->halt_heartbeat(node);
}

void Testbed::end_heartbeat_delay(NodeId node) {
  emit_fault_event(TraceEventType::kRecoverHeartbeat, node);
  rm_->resume_heartbeat(node);
}

void Testbed::begin_network_partition(NodeId node, int variant) {
  emit_fault_event(TraceEventType::kPartitionStart, node,
                   static_cast<std::uint64_t>(variant));
  ReachabilityMatrix& matrix = network_->reachability();
  switch (variant) {
    case 0:
      matrix.block_outbound(node);
      matrix.block_inbound(node);
      break;
    case 1: matrix.block_outbound(node); break;
    case 2: matrix.block_inbound(node); break;
    default:
      IGNEM_CHECK_MSG(false, "unknown partition variant " << variant);
  }
  network_->sever_partitioned_transfers();
  // Heartbeats travel node -> NameNode/RM, so any outbound cut silences
  // them. An inbound-only cut leaves them flowing: the node looks alive to
  // the detector while nobody can actually send it data — the asymmetric
  // shape that makes reachability checks on the read/repair paths matter.
  // With a routed control plane the beats are real RPCs gated on the same
  // matrix, so the Testbed no longer needs to fake the silence.
  if (rpc_router_ == nullptr && (variant == 0 || variant == 1)) {
    rm_->halt_heartbeat(node);
  }
}

void Testbed::end_network_partition(NodeId node, int variant) {
  emit_fault_event(TraceEventType::kPartitionHeal, node,
                   static_cast<std::uint64_t>(variant));
  ReachabilityMatrix& matrix = network_->reachability();
  switch (variant) {
    case 0:
      matrix.unblock_outbound(node);
      matrix.unblock_inbound(node);
      break;
    case 1: matrix.unblock_outbound(node); break;
    case 2: matrix.unblock_inbound(node); break;
    default:
      IGNEM_CHECK_MSG(false, "unknown partition variant " << variant);
  }
  if (rpc_router_ == nullptr && (variant == 0 || variant == 1)) {
    rm_->resume_heartbeat(node);
  }
}

void Testbed::begin_rack_partition(NodeId node) {
  emit_fault_event(TraceEventType::kPartitionStart, node, /*detail=*/3);
  const int rack = network_->topology().rack_of(node);
  const std::vector<NodeId> members = network_->topology().rack_members(rack);
  network_->reachability().block_group(rack, members);
  network_->sever_partitioned_transfers();
  // Unrouted legacy model: the control plane (NameNode/RM/detector) is
  // assumed to live outside the cut rack, so every member's heartbeats
  // stop; intra-rack data traffic still flows. With a routed control plane
  // the beats gate on the matrix itself — which also gets the control
  // node's own rack right: cutting *its* rack silences everyone else.
  if (rpc_router_ == nullptr) {
    for (const NodeId member : members) rm_->halt_heartbeat(member);
  }
}

void Testbed::end_rack_partition(NodeId node) {
  emit_fault_event(TraceEventType::kPartitionHeal, node, /*detail=*/3);
  const int rack = network_->topology().rack_of(node);
  network_->reachability().unblock_group(rack);
  if (rpc_router_ == nullptr) {
    for (const NodeId member : network_->topology().rack_members(rack)) {
      rm_->resume_heartbeat(member);
    }
  }
}

void Testbed::corrupt_block(NodeId node) {
  const DataNode& dn = datanode(node);
  std::vector<BlockId> candidates;
  for (const BlockId block : dn.blocks_sorted()) {
    if (!dn.is_corrupt(block)) candidates.push_back(block);
  }
  if (candidates.empty()) return;  // nothing stored, or all already rotten
  corrupt_replica(node, candidates[static_cast<std::size_t>(rng_.uniform_int(
                            0, static_cast<std::int64_t>(candidates.size()) -
                                   1))]);
}

void Testbed::corrupt_cached_block(NodeId node) {
  const BufferCache& cache = datanode(node).cache();
  std::vector<BlockId> candidates;
  for (const BlockId block : cache.blocks_sorted()) {
    if (!cache.is_corrupt(block)) candidates.push_back(block);
  }
  if (candidates.empty()) return;  // empty pool: the fault lands on nothing
  corrupt_cached_replica(
      node, candidates[static_cast<std::size_t>(rng_.uniform_int(
                0, static_cast<std::int64_t>(candidates.size()) - 1))]);
}

void Testbed::corrupt_replica(NodeId node, BlockId block) {
  DataNode& dn = datanode(node);
  IGNEM_CHECK_MSG(dn.has_block(block),
                  "corrupt_replica: node " << node.value()
                                           << " does not store the block");
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kFaultBlockCorrupt, node, block,
                 JobId::invalid(), dn.block_size(block), 0);
  }
  dn.corrupt_block(block);
}

void Testbed::corrupt_cached_replica(NodeId node, BlockId block) {
  DataNode& dn = datanode(node);
  IGNEM_CHECK_MSG(dn.cache().contains(block),
                  "corrupt_cached_replica: node "
                      << node.value() << " has no locked copy of the block");
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kFaultBlockCorrupt, node, block,
                 JobId::invalid(), namenode_->block(block).size, 1);
  }
  dn.corrupt_cached_copy(block);
}

}  // namespace ignem
