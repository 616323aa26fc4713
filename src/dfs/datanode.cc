#include "dfs/datanode.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"

namespace ignem {

namespace {

// Where `block` is, or would go, in an id-sorted replica table.
template <typename Table>
auto seek(Table& table, BlockId block) {
  return std::lower_bound(
      table.begin(), table.end(), block,
      [](const auto& replica, BlockId id) { return replica.block < id; });
}

}  // namespace

DataNode::DataNode(Simulator& sim, NodeId id, const DeviceProfile& primary,
                   Bytes pool_capacity, Rng rng)
    : sim_(sim),
      id_(id),
      // Stream ids 2 (pool) and 1 (home) are the fork order the pinned
      // traces were recorded with.
      ram_(sim, "dn" + std::to_string(id.value()) + "/ram", ram_profile(),
           rng.fork(2)),
      primary_(sim, "dn" + std::to_string(id.value()) + "/primary", primary,
               rng.fork(1)),
      pool_(pool_capacity) {
  IGNEM_CHECK_MSG(pool_capacity > 0, "the pool needs a positive capacity");
}

void DataNode::set_trace(TraceRecorder* trace) {
  trace_ = trace;
  ram_.set_trace(trace, id_);
  primary_.set_trace(trace, id_);
  pool_.set_trace(trace, id_);
}

void DataNode::add_block(BlockId block, Bytes size) {
  IGNEM_CHECK(block.valid());
  IGNEM_CHECK(size > 0);
  const Replica replica{block, size};
  const auto it = seek(replicas_, block);
  if (it != replicas_.end() && it->block == block) {
    *it = replica;
  } else {
    replicas_.insert(it, replica);  // at end() during set-up: an append
  }
  // The write path creates the replica's checksum; a re-written replica
  // (repair over an old copy) is clean again.
  if (!rotten_.empty()) rotten_.erase(block);
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kReplicaAdd, id_, block, JobId::invalid(),
                 size);
  }
}

const DataNode::Replica* DataNode::find(BlockId block) const {
  const auto it = seek(replicas_, block);
  return it != replicas_.end() && it->block == block ? &*it : nullptr;
}

Bytes DataNode::block_size(BlockId block) const {
  const Replica* replica = find(block);
  IGNEM_CHECK_MSG(replica != nullptr, "block " << block.value()
                                               << " not on node "
                                               << id_.value());
  return replica->size;
}

void DataNode::remove_block(BlockId block) {
  const auto it = seek(replicas_, block);
  if (it != replicas_.end() && it->block == block) replicas_.erase(it);
  if (!rotten_.empty()) rotten_.erase(block);
  // A disk read of a deleted replica can no longer finish; a read of a
  // still-promoted copy is unaffected (the migration plane owns that copy
  // and purges it).
  abort_pending_reads(&primary_, block);
}

void DataNode::corrupt_block(BlockId block) {
  IGNEM_CHECK_MSG(has_block(block), "corrupting block "
                                        << block.value()
                                        << " not stored on node "
                                        << id_.value());
  rotten_.insert(block);
}

std::vector<BlockId> DataNode::blocks_sorted() const {
  std::vector<BlockId> blocks;
  blocks.reserve(replicas_.size());
  for (const Replica& replica : replicas_) blocks.push_back(replica.block);
  return blocks;
}

BlockId DataNode::next_block_after(BlockId cursor) const {
  const auto it = seek(replicas_, BlockId(cursor.value() + 1));
  return it == replicas_.end() ? BlockId::invalid() : it->block;
}

void DataNode::report_corruption(BlockId block, bool cached,
                                 CorruptionSource source) {
  if (reporter_) reporter_(id_, block, cached, source);
}

void DataNode::read_block(BlockId block, Bytes size, JobId job,
                          ReadCallback on_complete) {
  const Bytes* pooled = alive_ ? pool_.find(block) : nullptr;
  const bool from_memory = pooled != nullptr;
  if (!alive_ || (disk_failed_ && !from_memory)) {
    // The serving process (or its disk) is gone: fail on the next sim step
    // so the client can fall back to another replica.
    sim_.schedule(Duration::zero(), [cb = std::move(on_complete)] {
      cb(BlockReadResult{Duration::zero(), false, true});
    });
    return;
  }
  // The copy this read serves must hold the size the caller resolved; only
  // a disk read searches the replica table for it.
  const Bytes served = from_memory ? *pooled : block_size(block);
  IGNEM_CHECK_MSG(served == size, "reading " << size << " B of block "
                                             << block.value() << " from a "
                                             << served << " B copy on node "
                                             << id_.value());
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kBlockReadStart, id_, block, job, size);
  }
  ++(from_memory ? stats_.pool_reads : stats_.home_reads);
  StorageDevice& device = from_memory ? ram_ : primary_;
  const SimTime start = sim_.now();
  const std::uint64_t id = next_read_++;
  const TransferHandle handle = device.read(
      size, [this, id, block, job, size, start, from_memory] {
        const auto it = pending_reads_.find(id);
        IGNEM_CHECK(it != pending_reads_.end());
        ReadCallback cb = std::move(it->second.callback);
        pending_reads_.erase(it);
        // The checksum pass over the transferred data. Judged at completion
        // so rot injected mid-read is caught too.
        const bool corrupt =
            from_memory ? pool_.is_corrupt(block) : is_corrupt(block);
        if (corrupt) {
          if (trace_ != nullptr) {
            trace_->emit(TraceEventType::kBlockReadCorrupt, id_, block, job,
                         size, from_memory ? 1 : 0);
          }
          report_corruption(block, from_memory, CorruptionSource::kRead);
          cb(BlockReadResult{sim_.now() - start, from_memory, false, true});
          return;
        }
        const BlockReadResult result{sim_.now() - start, from_memory, false};
        if (trace_ != nullptr) {
          trace_->emit(TraceEventType::kBlockReadEnd, id_, block, job, size,
                       from_memory ? 1 : 0);
        }
        if (listener_ != nullptr) listener_->on_block_read(id_, block, job);
        cb(result);
      });
  pending_reads_.emplace(
      id, PendingRead{&device, handle, block, std::move(on_complete)});
}

void DataNode::verify_block(BlockId block, ReadCallback on_complete) {
  const Bytes size = block_size(block);
  if (!disk_ok()) {
    sim_.schedule(Duration::zero(), [cb = std::move(on_complete)] {
      cb(BlockReadResult{Duration::zero(), false, true});
    });
    return;
  }
  const SimTime start = sim_.now();
  const std::uint64_t id = next_read_++;
  const TransferHandle handle =
      primary_.read(size, [this, id, block, size, start] {
        const auto it = pending_reads_.find(id);
        IGNEM_CHECK(it != pending_reads_.end());
        ReadCallback cb = std::move(it->second.callback);
        pending_reads_.erase(it);
        const bool corrupt = is_corrupt(block);
        if (trace_ != nullptr) {
          trace_->emit(TraceEventType::kScrub, id_, block, JobId::invalid(),
                       size, corrupt ? 1 : 0);
        }
        if (corrupt) report_corruption(block, false, CorruptionSource::kScrub);
        cb(BlockReadResult{sim_.now() - start, false, false, corrupt});
      });
  pending_reads_.emplace(
      id, PendingRead{&primary_, handle, block, std::move(on_complete)});
}

void DataNode::scrub_promoted_copy(BlockId block) {
  if (!alive_) return;
  if (!pool_.contains(block) || !pool_.is_corrupt(block)) return;
  report_corruption(block, /*cached=*/true, CorruptionSource::kScrub);
}

void DataNode::write(Bytes bytes, std::function<void()> on_complete) {
  if (!disk_ok()) {
    sim_.schedule(Duration::zero(), std::move(on_complete));
    return;
  }
  primary_.write(bytes, std::move(on_complete));
}

static_assert(sizeof(PoolStats) == 2 * sizeof(std::uint64_t),
              "name the new PoolStats field in DataNode::add_counters");
static_assert(sizeof(DataNodeStats) == 2 * sizeof(std::uint64_t),
              "name the new DataNodeStats field in DataNode::add_counters");

void DataNode::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["tier.promotes"] += pool_.stats().promotes;
  counters["tier.demotes"] += pool_.stats().demotes;
  counters["tier.reads.t0"] += stats_.pool_reads;
  counters["tier.reads.t1"] += stats_.home_reads;
}

void DataNode::abort_pending_reads(const StorageDevice* device,
                                   BlockId block) {
  // Detach first: a fired callback may start a new read on this node.
  std::map<std::uint64_t, PendingRead> failing;
  for (auto it = pending_reads_.begin(); it != pending_reads_.end();) {
    if ((device == nullptr || it->second.device == device) &&
        (!block.valid() || it->second.block == block)) {
      failing.insert(pending_reads_.extract(it++));
    } else {
      ++it;
    }
  }
  for (auto& [id, read] : failing) {
    read.device->abort(read.handle);
    sim_.schedule(Duration::zero(), [cb = std::move(read.callback)] {
      cb(BlockReadResult{Duration::zero(), false, true});
    });
  }
}

void DataNode::fail() {
  if (listener_ != nullptr) listener_->reset();
  alive_ = false;
  pool_.clear();  // the OS reclaims the dead process's locked pages
  abort_pending_reads(nullptr);
}

void DataNode::restart() { alive_ = true; }

void DataNode::set_disk_failed(bool failed) {
  disk_failed_ = failed;
  if (failed) abort_pending_reads(&primary_);
}

}  // namespace ignem
