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

NodeId DfsClient::choose_replica(NodeId reader, const BlockInfo& info) const {
  // A replica is usable when its node is in the namespace map, its
  // process is up, either the block sits in locked memory or the disk
  // works, and no active partition separates it from the reader. (During
  // an undetected crash the namespace still lists the node; the physical
  // alive() check keeps us off it. The reachability check is a single
  // integer compare on a healthy fabric.) One pass over the usable replicas
  // in placement order, one pool probe each, notes the best of every rank
  // below.
  bool local = false;         // the reader holds a usable replica
  bool local_cached = false;  // ... with a memory-resident copy
  NodeId cached = NodeId::invalid();  // first usable replica in memory
  NodeId least = NodeId::invalid();   // least-loaded device, lowest id on ties
  std::size_t least_load = 0;
  namenode_.for_each_live_location(info, [&](NodeId node) {
    const DataNode* dn = namenode_.datanode(node);
    if (!dn->alive()) return;
    const bool in_memory = dn->has_promoted_copy(info.id);
    if (!in_memory && !dn->disk_ok()) return;
    if (!network_.reachable(node, reader)) return;
    if (node == reader) {
      local = true;
      local_cached = in_memory;
    }
    if (in_memory && !cached.valid()) cached = node;
    const std::size_t load = dn->primary_device().active_requests();
    if (!least.valid() || load < least_load ||
        (load == least_load && node < least)) {
      least = node;
      least_load = load;
    }
  });
  // 1. Local memory-resident copy.
  if (local_cached) return reader;
  // 2. Any memory-resident copy (remote RAM + network beats local disk).
  if (cached.valid()) return cached;
  // 3. Local disk.
  if (local) return reader;
  // 4. Remote disk: the least-loaded replica's device, breaking ties by node
  //    id for determinism (invalid when no replica is usable).
  return least;
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
  if (metrics_ != nullptr) metrics_->add_block_read(record.sample());
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
  const BlockInfo& info = namenode_.block(block);
  const NodeId source = choose_replica(reader, info);
  if (!source.valid()) {
    // Every replica is on a crashed node, a failed disk, or marked corrupt.
    // Wait for recovery or re-replication to restore one, then try again.
    retry_read(reader, block, job, start, std::move(on_complete),
               kReadRetryDelay, nullptr);
    return;
  }
  const Bytes bytes = info.size;
  const bool remote = source != reader;

  namenode_.datanode(source)->read_block(
      block, bytes, job,
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
          const Duration delay =
              choose_replica(reader, namenode_.block(block)) == source
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
          if (metrics_ != nullptr) metrics_->add_block_read(record.sample());
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
  const BlockInfo& info = namenode_.block(block);
  std::vector<NodeId> locations;
  locations.reserve(info.replicas.size());
  std::size_t in_memory = 0;  // the memory-resident prefix
  namenode_.for_each_live_location(info, [&](NodeId node) {
    locations.push_back(node);
    if (namenode_.datanode(node)->has_promoted_copy(block)) {
      // Move it to the prefix's end; the disk-only ones shift up, in order.
      std::rotate(locations.begin() + static_cast<std::ptrdiff_t>(in_memory),
                  locations.end() - 1, locations.end());
      ++in_memory;
    }
  });
  return locations;
}

void DfsClient::migrate(const MigrationRequest& request) {
  if (service_ != nullptr) service_->request(request);
}

}  // namespace ignem
