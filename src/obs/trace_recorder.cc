#include "obs/trace_recorder.h"

#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "common/check.h"
#include "common/fnv.h"

namespace ignem {

namespace {

constexpr char kBinaryMagic[8] = {'I', 'G', 'N', 'T', 'R', 'C', '0', '1'};

void put_u64(std::ostream& os, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (i * 8)) & 0xff);
  os.write(buf, 8);
}

std::uint64_t get_u64(std::istream& is) {
  char buf[8];
  is.read(buf, 8);
  IGNEM_CHECK_MSG(is.good(), "truncated binary trace");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
         << (i * 8);
  }
  return v;
}

}  // namespace

const char* trace_event_name(TraceEventType type) {
  switch (type) {
    case TraceEventType::kBandwidthChange: return "bandwidth_change";
    case TraceEventType::kCacheInit: return "cache_init";
    case TraceEventType::kCacheLock: return "cache_lock";
    case TraceEventType::kCacheUnlock: return "cache_unlock";
    case TraceEventType::kCacheReserve: return "cache_reserve";
    case TraceEventType::kCacheCommit: return "cache_commit";
    case TraceEventType::kCacheCancel: return "cache_cancel";
    case TraceEventType::kFileCreate: return "file_create";
    case TraceEventType::kReplicaAdd: return "replica_add";
    case TraceEventType::kNodeDead: return "node_dead";
    case TraceEventType::kNodeAlive: return "node_alive";
    case TraceEventType::kBlockReadStart: return "block_read_start";
    case TraceEventType::kBlockReadEnd: return "block_read_end";
    case TraceEventType::kRepairStart: return "repair_start";
    case TraceEventType::kRepairComplete: return "repair_complete";
    case TraceEventType::kJobRegister: return "job_register";
    case TraceEventType::kJobComplete: return "job_complete";
    case TraceEventType::kContainerAllocate: return "container_allocate";
    case TraceEventType::kContainerRelease: return "container_release";
    case TraceEventType::kMigrateRequest: return "migrate_request";
    case TraceEventType::kEvictRequest: return "evict_request";
    case TraceEventType::kMigrationEnqueue: return "migration_enqueue";
    case TraceEventType::kMigrationDequeue: return "migration_dequeue";
    case TraceEventType::kMigrationDrop: return "migration_drop";
    case TraceEventType::kMigrationStart: return "migration_start";
    case TraceEventType::kMigrationComplete: return "migration_complete";
    case TraceEventType::kHotPromote: return "hot_promote";
    case TraceEventType::kFaultNodeCrash: return "fault_node_crash";
    case TraceEventType::kFaultMasterCrash: return "fault_master_crash";
    case TraceEventType::kFaultSlaveCrash: return "fault_slave_crash";
    case TraceEventType::kFaultDiskFailStop: return "fault_disk_fail_stop";
    case TraceEventType::kFaultDiskFailSlow: return "fault_disk_fail_slow";
    case TraceEventType::kFaultNetworkDegrade: return "fault_network_degrade";
    case TraceEventType::kFaultHeartbeatDelay: return "fault_heartbeat_delay";
    case TraceEventType::kFaultDetectedDead: return "fault_detected_dead";
    case TraceEventType::kRecoverNodeRestart: return "recover_node_restart";
    case TraceEventType::kRecoverNodeRejoin: return "recover_node_rejoin";
    case TraceEventType::kRecoverMasterRestart: return "recover_master_restart";
    case TraceEventType::kRecoverSlaveRestart: return "recover_slave_restart";
    case TraceEventType::kRecoverDisk: return "recover_disk";
    case TraceEventType::kRecoverNetwork: return "recover_network";
    case TraceEventType::kRecoverHeartbeat: return "recover_heartbeat";
    case TraceEventType::kMigrationRetry: return "migration_retry";
    case TraceEventType::kFaultBlockCorrupt: return "fault_block_corrupt";
    case TraceEventType::kScrub: return "scrub";
    case TraceEventType::kBlockReadCorrupt: return "block_read_corrupt";
    case TraceEventType::kCorruptionDetected: return "corruption_detected";
    case TraceEventType::kReplicaInvalidate: return "replica_invalidate";
    case TraceEventType::kPartitionStart: return "partition_start";
    case TraceEventType::kPartitionHeal: return "partition_heal";
    case TraceEventType::kNodeSuspect: return "node_suspect";
    case TraceEventType::kFalseDead: return "false_dead";
    case TraceEventType::kExcessReplicaDeleted: return "excess_replica_deleted";
    case TraceEventType::kRpcTimeout: return "rpc_timeout";
    case TraceEventType::kTransferSevered: return "transfer_severed";
    case TraceEventType::kCount: break;
  }
  return "?";
}

TraceRecorder::TraceRecorder() : hash_(kFnvTraceOffset) {}

void TraceRecorder::add_observer(TraceObserver* observer) {
  IGNEM_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

void TraceRecorder::emit(TraceEventType type, NodeId node, BlockId block,
                         JobId job, Bytes bytes, std::int64_t detail,
                         double value) {
  TraceEvent event;
  event.seq = next_seq_++;
  event.time = clock_ ? clock_() : SimTime::zero();
  event.type = type;
  event.node = node;
  event.block = block;
  event.job = job;
  event.bytes = bytes;
  event.detail = detail;
  event.value = value;

  for (const std::uint64_t field :
       {static_cast<std::uint64_t>(event.time.count_micros()),
        static_cast<std::uint64_t>(type),
        static_cast<std::uint64_t>(node.value()),
        static_cast<std::uint64_t>(block.value()),
        static_cast<std::uint64_t>(job.value()),
        static_cast<std::uint64_t>(bytes), static_cast<std::uint64_t>(detail),
        std::bit_cast<std::uint64_t>(value)}) {
    hash_ = fnv1a_word(hash_, field);
  }

  events_.push_back(event);
  for (TraceObserver* observer : observers_) observer->on_event(event);
}

void TraceRecorder::append_jsonl(std::ostream& os, const TraceEvent& event) {
  os << "{\"seq\":" << event.seq << ",\"t\":" << event.time.count_micros()
     << ",\"type\":\"" << trace_event_name(event.type)
     << "\",\"node\":" << event.node.value()
     << ",\"block\":" << event.block.value()
     << ",\"job\":" << event.job.value() << ",\"bytes\":" << event.bytes
     << ",\"detail\":" << event.detail;
  // Rates serialize as exact bit patterns: the golden-diff contract is
  // bit-for-bit, and decimal round-trips of doubles are not.
  os << ",\"value_bits\":" << std::bit_cast<std::uint64_t>(event.value)
     << "}\n";
}

void TraceRecorder::write_jsonl(std::ostream& os) const {
  for (const TraceEvent& event : events_) append_jsonl(os, event);
}

void TraceRecorder::write_binary(std::ostream& os) const {
  os.write(kBinaryMagic, sizeof(kBinaryMagic));
  put_u64(os, events_.size());
  for (const TraceEvent& event : events_) {
    put_u64(os, event.seq);
    put_u64(os, static_cast<std::uint64_t>(event.time.count_micros()));
    put_u64(os, static_cast<std::uint64_t>(event.type));
    put_u64(os, static_cast<std::uint64_t>(event.node.value()));
    put_u64(os, static_cast<std::uint64_t>(event.block.value()));
    put_u64(os, static_cast<std::uint64_t>(event.job.value()));
    put_u64(os, static_cast<std::uint64_t>(event.bytes));
    put_u64(os, static_cast<std::uint64_t>(event.detail));
    put_u64(os, std::bit_cast<std::uint64_t>(event.value));
  }
}

std::vector<TraceEvent> TraceRecorder::read_binary(std::istream& is) {
  char magic[sizeof(kBinaryMagic)];
  is.read(magic, sizeof(magic));
  IGNEM_CHECK_MSG(is.good() && std::memcmp(magic, kBinaryMagic,
                                           sizeof(kBinaryMagic)) == 0,
                  "not an ignem binary trace");
  const std::uint64_t count = get_u64(is);
  std::vector<TraceEvent> events;
  events.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceEvent event;
    event.seq = get_u64(is);
    event.time = SimTime(static_cast<std::int64_t>(get_u64(is)));
    const std::uint64_t type = get_u64(is);
    IGNEM_CHECK_MSG(type < kTraceEventTypeCount, "bad event type in trace");
    event.type = static_cast<TraceEventType>(type);
    event.node = NodeId(static_cast<std::int64_t>(get_u64(is)));
    event.block = BlockId(static_cast<std::int64_t>(get_u64(is)));
    event.job = JobId(static_cast<std::int64_t>(get_u64(is)));
    event.bytes = static_cast<Bytes>(get_u64(is));
    event.detail = static_cast<std::int64_t>(get_u64(is));
    event.value = std::bit_cast<double>(get_u64(is));
    events.push_back(event);
  }
  return events;
}

}  // namespace ignem
