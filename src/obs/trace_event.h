// Typed simulation-trace events.
//
// Every component on the hot path can emit structured events into a
// TraceRecorder: block read start/end, replica add, migration
// enqueue/start/complete, container allocate/release, cache lock/unlock,
// bandwidth rate changes. An event is a flat POD so that recording is one
// vector push and hashing/serialization never chase pointers. The same
// stream feeds three consumers: the trace hash (bit-for-bit determinism
// checks), the InvariantChecker (live conservation laws), and the
// JSONL/binary sinks (golden traces, offline diffing).
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "common/units.h"

namespace ignem {

enum class TraceEventType : std::uint8_t {
  // Bandwidth channels (storage devices and NICs).
  kBandwidthChange,   ///< detail = active streams, value = per-stream rate,
                      ///< bytes = channel sequential capacity (B/s).
  // Locked-page pool (buffer cache): the one record of a block copy moving
  // into RAM (lock, commit) or out of it (unlock, which is also the one
  // record of a slave eviction). kCacheInit is emitted at wiring.
  kCacheInit,         ///< bytes = pool capacity.
  kCacheLock,         ///< a new copy locked without IO (preload, instant
                      ///< migration); bytes = block size, detail = pool
                      ///< used after.
  kCacheUnlock,       ///< bytes = block size, detail = pool used after. An
                      ///< invalid block marks the aggregate drop of a pool
                      ///< reclaimed by a process failure (bytes = all it
                      ///< held, reservations included).
  kCacheReserve,      ///< bytes = reservation, detail = pool used after.
  kCacheCommit,       ///< a paged-in copy became visible; bytes = block
                      ///< size, detail = pool used after.
  kCacheCancel,       ///< bytes = reservation, detail = pool used after.
  // DFS namespace and read path.
  kFileCreate,        ///< bytes = file size, detail = block count.
  kReplicaAdd,        ///< node gained a replica of block; bytes = block size.
  kNodeDead,          ///< node marked dead in the namespace.
  kNodeAlive,         ///< node marked alive again.
  kBlockReadStart,    ///< bytes = block size.
  kBlockReadEnd,      ///< bytes = block size, detail = 1 if served from memory.
  kRepairStart,       ///< re-replication copy began; node = source,
                      ///< detail = target node id.
  kRepairComplete,    ///< node = target that gained the replica.
  // Cluster scheduler.
  kJobRegister,
  kJobComplete,
  kContainerAllocate, ///< node granted a container to job.
  kContainerRelease,  ///< node got a slot back.
  // Ignem master/slave and the migration queue.
  kMigrateRequest,    ///< client migrate RPC; bytes = job input bytes,
                      ///< detail = file count.
  kEvictRequest,      ///< client evict RPC; detail = file count.
  kMigrationEnqueue,  ///< detail = queue depth after push.
  kMigrationDequeue,  ///< detail = queue depth after pop.
  kMigrationDrop,     ///< queued entry erased (job done / missed read).
  kMigrationStart,    ///< slave began paging the block in.
  kMigrationComplete, ///< block is memory-resident.
  kHotPromote,        ///< hot-data baseline promoted block;
                      ///< detail = access count at promotion.
  // Fault injection and failure detection (src/fault). Fault-free runs
  // never emit these, so pinned trace hashes are unaffected.
  kFaultNodeCrash,      ///< whole server (DataNode + slave process) crashed.
  kFaultMasterCrash,    ///< Ignem master process crashed.
  kFaultSlaveCrash,     ///< Ignem slave process bounced (disk data survives).
  kFaultDiskFailStop,   ///< primary device stopped serving IO.
  kFaultDiskFailSlow,   ///< gray failure began; detail = injected hog streams.
  kFaultNetworkDegrade, ///< NIC contention window began; detail = hog streams.
  kFaultHeartbeatDelay, ///< node's heartbeats suppressed (process still runs).
  kFaultDetectedDead,   ///< the failure detector declared node dead after
                        ///< missed heartbeats; detail = 0.
  kRecoverNodeRestart,  ///< crashed server's processes are back up.
  kRecoverNodeRejoin,   ///< the failure detector readmitted a beating
                        ///< node; detail = 0.
  kRecoverMasterRestart,///< replacement master serving requests.
  kRecoverSlaveRestart, ///< slave process restarted with empty state.
  kRecoverDisk,         ///< disk fault window (fail-stop or fail-slow) ended.
  kRecoverNetwork,      ///< NIC contention window ended.
  kRecoverHeartbeat,    ///< heartbeat suppression ended.
  kMigrationRetry,      ///< master rerouted a migration off a dead node;
                        ///< detail = retry attempt number.
  // Data-integrity plane (src/integrity). Only corruption injection or an
  // enabled scrubber emits these, so pinned trace hashes are unaffected.
  kFaultBlockCorrupt,   ///< silent bit-rot injected; bytes = block size,
                        ///< detail = 0 disk replica, 1 cached copy.
  kScrub,               ///< scrubber verified a stored block;
                        ///< detail = 1 if the checksum pass failed.
  kBlockReadCorrupt,    ///< read completed but the checksum failed; bytes =
                        ///< block size, detail = 1 if served from memory.
  kCorruptionDetected,  ///< integrity manager accepted a corruption report;
                        ///< bytes = block size, detail = source (0 read,
                        ///< 1 scrub, 2 migration), value = 1 if cached copy.
  kReplicaInvalidate,   ///< NameNode dropped a corrupt replica from the
                        ///< namespace; bytes = block size.
  // Partition tolerance (src/net reachability + src/fault). Emitted only
  // when partition faults are injected, so fault-free hashes are unmoved.
  kPartitionStart,      ///< node/rack cut off; detail = variant (0 symmetric
                        ///< node, 1 outbound-only, 2 inbound-only, 3 rack).
  kPartitionHeal,       ///< matching end of a partition window; detail as
                        ///< kPartitionStart.
  kNodeSuspect,         ///< detector passed kLivenessTimeout but is inside
                        ///< the suspicion grace window; not yet dead.
  kFalseDead,           ///< detector declared a node dead whose process was
                        ///< in fact alive (partition/heartbeat silence).
  kExcessReplicaDeleted,  ///< rejoin reconciliation dropped an
                          ///< over-replicated copy; bytes = block size.
  // Routed control plane + severed transfers (src/net/rpc, Network). Only
  // partition cuts emit these, so the pinned fault-free hashes are unmoved.
  kRpcTimeout,          ///< control RPC resolved without delivery; node =
                        ///< callee, detail = outcome (1 timeout,
                        ///< 2 unreachable), bytes = attempts made.
  kTransferSevered,     ///< in-flight transfer aborted at a partition cut;
                        ///< node = destination, detail = source node id
                        ///< (-1 = fan-in shuffle), bytes = unserved bytes
                        ///< refunded to the sender, value = bytes already
                        ///< on the wire when the cut landed.
  kCount              ///< Sentinel; not a real event.
};

inline constexpr std::size_t kTraceEventTypeCount =
    static_cast<std::size_t>(TraceEventType::kCount);

/// Stable lower_snake_case name, used by the JSONL sink.
const char* trace_event_name(TraceEventType type);

/// One recorded event. Fields not meaningful for a type are left at their
/// defaults (invalid ids, zero counts) and still participate in hashing, so
/// the hash covers exactly what the sinks serialize.
struct TraceEvent {
  std::uint64_t seq = 0;  ///< Emission order, assigned by the recorder.
  SimTime time;           ///< Stamped from the recorder's clock.
  TraceEventType type = TraceEventType::kCount;
  NodeId node;
  BlockId block;
  JobId job;
  Bytes bytes = 0;
  std::int64_t detail = 0;  ///< Type-specific (see enum comments).
  double value = 0.0;       ///< Type-specific rate/ratio.
};

}  // namespace ignem
