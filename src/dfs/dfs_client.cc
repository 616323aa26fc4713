#include "dfs/dfs_client.h"

#include <algorithm>

#include "common/check.h"

namespace ignem {

DfsClient::DfsClient(Simulator& sim, NameNode& namenode, Network& network,
                     RunMetrics* metrics)
    : sim_(sim), namenode_(namenode), network_(network), metrics_(metrics) {}

void DfsClient::set_metrics_registry(MetricsRegistry* registry) {
  if (registry == nullptr) {
    read_latency_ = nullptr;
    read_latency_memory_ = nullptr;
    read_latency_disk_ = nullptr;
    return;
  }
  read_latency_ = &registry->histogram("dfs.read_latency_us");
  read_latency_memory_ = &registry->histogram("dfs.read_latency_us.memory");
  read_latency_disk_ = &registry->histogram("dfs.read_latency_us.disk");
}

static_assert(sizeof(DfsStats) == 7 * sizeof(std::uint64_t),
              "name the new DfsStats field in DfsClient::add_counters");

void DfsClient::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["dfs.reads_completed"] += stats_.reads_completed;
  counters["dfs.reads_failed"] += stats_.reads_failed;
  counters["dfs.memory_reads"] += stats_.memory_reads;
  counters["dfs.remote_reads"] += stats_.remote_reads;
  counters["dfs.retries"] += stats_.retries;
  counters["dfs.replica_failovers"] += stats_.replica_failovers;
  counters["dfs.checksum_failovers"] += stats_.checksum_failovers;
}

NodeId DfsClient::choose_replica(NodeId reader, BlockId block) const {
  // A replica is usable when its node is in the namespace map, its
  // process is up, either the block sits in locked memory or the disk
  // works, and no active partition separates it from the reader. (During
  // an undetected crash the namespace still lists the node; the physical
  // alive() check keeps us off it. The reachability check is a single
  // integer compare on a healthy fabric.)
  std::vector<NodeId> locations;
  for (const NodeId node : namenode_.live_locations(block)) {
    const DataNode* dn = namenode_.datanode(node);
    if (!dn->alive()) continue;
    if (!dn->has_promoted_copy(block) && !dn->disk_ok()) continue;
    if (!network_.reachable(node, reader)) continue;
    locations.push_back(node);
  }
  if (locations.empty()) return NodeId::invalid();
  const bool reader_has_replica =
      std::find(locations.begin(), locations.end(), reader) != locations.end();

  // 1. Local memory-resident copy.
  if (reader_has_replica &&
      namenode_.datanode(reader)->has_promoted_copy(block)) {
    return reader;
  }
  // 2. Any memory-resident copy (remote RAM + network beats local disk).
  for (const NodeId node : locations) {
    if (namenode_.datanode(node)->has_promoted_copy(block)) return node;
  }
  // 3. Local disk.
  if (reader_has_replica) return reader;
  // 4. Remote disk: pick the least-loaded replica's device, breaking ties by
  //    node id for determinism.
  NodeId best = locations.front();
  std::size_t best_load = namenode_.datanode(best)->primary_device().active_requests();
  for (const NodeId node : locations) {
    const std::size_t load =
        namenode_.datanode(node)->primary_device().active_requests();
    if (load < best_load || (load == best_load && node < best)) {
      best = node;
      best_load = load;
    }
  }
  return best;
}

void DfsClient::read_block(NodeId reader, BlockId block, JobId job,
                           ReadCallback on_complete) {
  attempt_read(reader, block, job, sim_.now(), std::move(on_complete));
}

void DfsClient::fail_read(NodeId reader, BlockId block, JobId job,
                          SimTime start, const ReadCallback& on_complete) {
  BlockReadRecord record;
  record.block = block;
  record.job = job;
  record.reader = reader;
  record.bytes = namenode_.block(block).size;
  record.start = start;
  record.duration = sim_.now() - start;
  record.failed = true;
  ++stats_.reads_failed;
  if (metrics_ != nullptr) metrics_->add_block_read(record);
  on_complete(record);
}

void DfsClient::retry_read(NodeId reader, BlockId block, JobId job,
                           SimTime start, ReadCallback on_complete,
                           Duration delay, std::uint64_t* cause) {
  // A permanently unreadable block must surface a terminal error, not
  // retry forever.
  if (sim_.now() - start >= kReadDeadline) {
    fail_read(reader, block, job, start, on_complete);
    return;
  }
  ++stats_.retries;
  if (cause != nullptr) ++*cause;
  sim_.schedule(delay,
                [this, reader, block, job, start,
                 cb = std::move(on_complete)]() mutable {
                  attempt_read(reader, block, job, start, std::move(cb));
                },
                EventClass::kRetry);
}

void DfsClient::attempt_read(NodeId reader, BlockId block, JobId job,
                             SimTime start, ReadCallback on_complete) {
  const NodeId source = choose_replica(reader, block);
  if (!source.valid()) {
    // Every replica is on a crashed node, a failed disk, or marked corrupt.
    // Wait for recovery or re-replication to restore one, then try again.
    retry_read(reader, block, job, start, std::move(on_complete),
               kReadRetryDelay, nullptr);
    return;
  }
  DataNode* source_node = namenode_.datanode(source);
  const Bytes bytes = namenode_.block(block).size;
  const bool remote = source != reader;

  source_node->read_block(
      block, job,
      [this, reader, source, block, job, bytes, start, remote,
       cb = std::move(on_complete)](const BlockReadResult& local) {
        if (local.failed) {
          // The source died mid-read; back off and pick another replica.
          retry_read(reader, block, job, start, cb, kReadRetryDelay,
                     &stats_.replica_failovers);
          return;
        }
        if (local.corrupt) {
          // Checksum failure: the replica was just reported and excluded
          // from live_locations, so fail over to another copy right away.
          // If the exclusion did not take (no integrity plane wired), back
          // off instead so the retry loop advances sim time toward the
          // deadline rather than spinning.
          const Duration delay = choose_replica(reader, block) == source
                                     ? kReadRetryDelay
                                     : Duration::zero();
          retry_read(reader, block, job, start, cb, delay,
                     &stats_.checksum_failovers);
          return;
        }
        auto finish = [this, reader, source, block, job, bytes, start, remote,
                       from_memory = local.from_memory, cb]() {
          BlockReadRecord record;
          record.block = block;
          record.job = job;
          record.reader = reader;
          record.source = source;
          record.bytes = bytes;
          record.start = start;
          record.duration = sim_.now() - start;
          record.from_memory = from_memory;
          record.remote = remote;
          ++stats_.reads_completed;
          if (from_memory) ++stats_.memory_reads;
          if (remote) ++stats_.remote_reads;
          if (read_latency_ != nullptr) {
            const std::int64_t us = record.duration.count_micros();
            read_latency_->record(us);
            (from_memory ? read_latency_memory_ : read_latency_disk_)
                ->record(us);
          }
          if (metrics_ != nullptr) metrics_->add_block_read(record);
          cb(record);
        };
        if (remote) {
          network_.transfer(
              source, reader, bytes, finish,
              [this, reader, block, job, start, cb] {
                // Severed mid-transfer by a fresh partition cut: fail over
                // to a reachable replica like a source death
                // (choose_replica skips unreachable nodes).
                retry_read(reader, block, job, start, cb, kReadRetryDelay,
                           &stats_.replica_failovers);
              });
        } else {
          finish();
        }
      });
}

std::vector<NodeId> DfsClient::preferred_locations(BlockId block) const {
  std::vector<NodeId> locations = namenode_.live_locations(block);
  std::stable_partition(locations.begin(), locations.end(),
                        [this, block](NodeId node) {
                          return namenode_.datanode(node)->has_promoted_copy(block);
                        });
  return locations;
}

void DfsClient::migrate(const MigrationRequest& request) {
  if (service_ != nullptr) service_->request(request);
}

}  // namespace ignem
