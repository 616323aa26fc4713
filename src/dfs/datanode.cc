#include "dfs/datanode.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/fnv.h"

namespace ignem {

namespace {

// Where `block` is, or would go, in an id-sorted replica table.
template <typename Table>
auto seek(Table& table, BlockId block) {
  return std::lower_bound(
      table.begin(), table.end(), block,
      [](const auto& replica, BlockId id) { return replica.block < id; });
}

// The paper's policy, for nodes no Testbed hands one (unit tests, the
// microbench). It is stateless, so one instance serves every such node.
const MigrationPolicy& paper_policy() {
  static const UpwardOnHeatPolicy policy;
  return policy;
}

}  // namespace

DataNode::DataNode(Simulator& sim, NodeId id, std::vector<TierSpec> tiers,
                   Rng rng)
    : sim_(sim),
      id_(id),
      tiers_(sim, "dn" + std::to_string(id.value()), std::move(tiers), rng),
      policy_(&paper_policy()) {}

void DataNode::set_trace(TraceRecorder* trace) {
  trace_ = trace;
  tiers_.set_trace(trace, id_);
}

void DataNode::add_block(BlockId block, Bytes size) {
  IGNEM_CHECK(block.valid());
  IGNEM_CHECK(size > 0);
  // The write path creates the replica's checksum; a re-written replica
  // (repair over an old copy) is clean again.
  const Replica replica{block, size, expected_checksum(block, size)};
  const auto it = seek(replicas_, block);
  if (it != replicas_.end() && it->block == block) {
    *it = replica;
  } else {
    replicas_.insert(it, replica);  // at end() during set-up: an append
  }
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kReplicaAdd, id_, block, JobId::invalid(),
                 size);
  }
}

std::uint64_t DataNode::expected_checksum(BlockId block, Bytes size) {
  // FNV-1a over the block identity and size — a stand-in for a content
  // digest that every clean replica agrees on.
  const std::uint64_t h =
      fnv1a_word(kFnvOffset, static_cast<std::uint64_t>(block.value()));
  return fnv1a_word(h, static_cast<std::uint64_t>(size));
}

const DataNode::Replica* DataNode::find(BlockId block) const {
  const auto it = seek(replicas_, block);
  return it != replicas_.end() && it->block == block ? &*it : nullptr;
}

std::uint64_t DataNode::stored_checksum(BlockId block) const {
  const Replica* replica = find(block);
  IGNEM_CHECK_MSG(replica != nullptr, "block " << block.value()
                                               << " not on node "
                                               << id_.value());
  return replica->checksum;
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
  // A disk read of a deleted replica can no longer finish; a read of a
  // still-promoted copy is unaffected.
  abort_pending_reads(&primary_device(), block);
  // Victim-tier copies lost their durable parent; drop them. The tier-0
  // copy is owned by the migration plane and purged through it.
  purge_victim_copies(block);
}

void DataNode::corrupt_block(BlockId block) {
  const auto it = seek(replicas_, block);
  IGNEM_CHECK_MSG(it != replicas_.end() && it->block == block,
                  "corrupting block " << block.value()
                                      << " not stored on node "
                                      << id_.value());
  // Rot damages the stored data; its checksum stops matching the expected
  // one. Assigning (not XOR-ing in place) keeps a twice-corrupted copy bad.
  it->checksum = expected_checksum(block, it->size) ^ 0xDEADBEEFDEADBEEFULL;
}

void DataNode::corrupt_cached_copy(BlockId block) {
  const std::size_t serving = tiers_.serving_tier(block);
  tiers_.pool(serving == tiers_.home_tier() ? 0 : serving)
      .mark_corrupt(block);
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

void DataNode::read_block(BlockId block, JobId job, ReadCallback on_complete) {
  const Bytes size = block_size(block);
  const std::size_t home = tiers_.home_tier();
  const std::size_t serving = alive_ ? tiers_.serving_tier(block) : home;
  const bool promoted = alive_ && serving != home;
  const bool from_memory = promoted && serving == 0;
  if (!alive_ || (disk_failed_ && !promoted)) {
    // The serving process (or its disk) is gone: fail on the next sim step
    // so the client can fall back to another replica.
    sim_.schedule(Duration::zero(), [cb = std::move(on_complete)] {
      cb(BlockReadResult{Duration::zero(), false, true});
    });
    return;
  }
  if (trace_ != nullptr) {
    trace_->emit(from_memory ? TraceEventType::kCacheHit
                             : TraceEventType::kCacheMiss,
                 id_, block, job, size);
    trace_->emit(TraceEventType::kBlockReadStart, id_, block, job, size);
  }
  tiers_.note_read(serving);
  StorageDevice& device = tiers_.device(serving);
  const SimTime start = sim_.now();
  const std::uint64_t id = next_read_++;
  const TransferHandle handle = device.read(
      size, [this, id, block, job, size, start, serving, promoted,
             from_memory] {
        auto finish = [this, id, block, job, size, start, serving, promoted,
                       from_memory] {
          const auto it = pending_reads_.find(id);
          // Absent only when the node crashed while the (deferred) checksum
          // pass was running: abort_pending_reads already failed the read.
          if (it == pending_reads_.end()) return;
          ReadCallback cb = std::move(it->second.callback);
          pending_reads_.erase(it);
          // The checksum pass over the transferred data. Judged at
          // completion so rot injected mid-read is caught too.
          const bool corrupt = promoted
                                   ? tiers_.pool(serving).is_corrupt(block)
                                   : is_corrupt(block);
          if (corrupt) {
            if (trace_ != nullptr) {
              trace_->emit(TraceEventType::kBlockReadCorrupt, id_, block, job,
                           size, promoted ? 1 : 0);
            }
            report_corruption(block, promoted, CorruptionSource::kRead);
            cb(BlockReadResult{sim_.now() - start, from_memory, false, true});
            return;
          }
          const BlockReadResult result{sim_.now() - start, from_memory, false};
          if (trace_ != nullptr) {
            trace_->emit(TraceEventType::kBlockReadEnd, id_, block, job, size,
                         from_memory ? 1 : 0);
          }
          // Victim-tier residency heat: the DownwardOnCold ageing tick
          // demotes copies that stop being touched.
          if (promoted && serving > 0) victim_touch_[block] = sim_.now();
          if (listener_ != nullptr) listener_->on_block_read(id_, block, job);
          cb(result);
        };
        // Zero cost (the default) runs the pass inline — no extra event, so
        // traces are untouched; a configured cost delays delivery by the
        // verification time, which also lands in the result's latency.
        const Duration cost = checksum_cost(size);
        if (cost <= Duration::zero()) {
          finish();
        } else {
          sim_.schedule(cost, std::move(finish));
        }
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
  const TransferHandle handle = primary_device().read(
      size, [this, id, block, size, start] {
        auto finish = [this, id, block, size, start] {
          const auto it = pending_reads_.find(id);
          if (it == pending_reads_.end()) return;  // aborted mid-checksum
          ReadCallback cb = std::move(it->second.callback);
          pending_reads_.erase(it);
          const bool corrupt = is_corrupt(block);
          if (trace_ != nullptr) {
            trace_->emit(TraceEventType::kScrub, id_, block, JobId::invalid(),
                         size, corrupt ? 1 : 0);
          }
          if (corrupt) {
            report_corruption(block, false, CorruptionSource::kScrub);
          }
          cb(BlockReadResult{sim_.now() - start, false, false, corrupt});
        };
        const Duration cost = checksum_cost(size);
        if (cost <= Duration::zero()) {
          finish();
        } else {
          sim_.schedule(cost, std::move(finish));
        }
      });
  pending_reads_.emplace(id, PendingRead{&primary_device(), handle, block,
                                         std::move(on_complete)});
}

void DataNode::scrub_promoted_copies(BlockId block) {
  if (!alive_) return;
  for (std::size_t t = 0; t < tiers_.home_tier(); ++t) {
    const BufferCache& pool = tiers_.pool(t);
    if (!pool.contains(block) || !pool.is_corrupt(block)) continue;
    report_corruption(block, /*cached=*/true, CorruptionSource::kScrub);
  }
}

void DataNode::write(Bytes bytes, std::function<void()> on_complete) {
  if (!disk_ok()) {
    sim_.schedule(Duration::zero(), std::move(on_complete));
    return;
  }
  if (policy_->buffer_writes() &&
      tiers_.pool(0).available() >= bytes && tiers_.pool(0).reserve(bytes)) {
    // The burst is absorbed at fast-tier speed; the caller continues as
    // soon as the fast write lands, while the data drains to the home
    // tier in the background.
    const std::uint64_t epoch = epoch_;
    tiers_.device(0).write(bytes,
                           [this, bytes, epoch, cb = std::move(on_complete)] {
                             cb();
                             if (epoch != epoch_) return;  // process died
                             drain_to_home(bytes);
                           });
    return;
  }
  primary_device().write(bytes, std::move(on_complete));
}

void DataNode::drain_to_home(Bytes bytes) {
  const std::uint64_t epoch = epoch_;
  primary_device().write(bytes, [this, bytes, epoch] {
    // A crash between the fast write and the drain completing reclaims the
    // pool (and loses the buffered bytes); the late completion must not
    // touch the new incarnation's reservations.
    if (epoch != epoch_) return;
    tiers_.pool(0).cancel_reservation(bytes);
    tiers_.note_demote(0, tiers_.home_tier(), BlockId::invalid(), bytes);
  });
}

bool DataNode::lock_copy(BlockId block, Bytes bytes) {
  BufferCache& pool = tiers_.pool(0);
  if (pool.contains(block)) return true;
  if (!pool.lock(block, bytes)) return false;
  tiers_.note_promote(tiers_.home_tier(), 0, block, bytes);
  return true;
}

bool DataNode::release_copy(BlockId block, std::size_t tier, Bytes bytes,
                            bool allow_demote) {
  const std::size_t home = tiers_.home_tier();
  IGNEM_CHECK(tier < home);
  BufferCache& pool = tiers_.pool(tier);
  if (!pool.contains(block)) return false;
  const bool corrupt = pool.is_corrupt(block);
  pool.unlock(block);
  std::size_t dst = home;
  if (allow_demote && alive_ && !corrupt) {
    dst = std::min(policy_->demotion_target(tiers_, tier), home);
    if (dst <= tier) dst = home;
  }
  if (dst != home) {
    BufferCache& lower = tiers_.pool(dst);
    if (lower.available() >= bytes && lower.lock(block, bytes)) {
      // Copy-out IO on the receiving device; the copy is readable there
      // immediately (write-through victim cache).
      tiers_.device(dst).write(bytes, [] {});
      victim_touch_[block] = sim_.now();
      tiers_.note_demote(tier, dst, block, bytes);
      return true;
    }
    dst = home;  // no room below: plain drop
  }
  tiers_.note_demote(tier, home, block, bytes);
  if (!tiers_.has_promoted_copy(block)) victim_touch_.erase(block);
  return true;
}

bool DataNode::demote_victim(BlockId block, std::size_t from) {
  IGNEM_CHECK(from > 0 && from < tiers_.home_tier());
  BufferCache& pool = tiers_.pool(from);
  if (!pool.contains(block)) return false;
  return release_copy(block, from, pool.block_bytes(block),
                      /*allow_demote=*/true);
}

std::size_t DataNode::age_victim_copies() {
  if (!alive_) return 0;
  std::size_t demoted = 0;
  const SimTime now = sim_.now();
  for (std::size_t t = 1; t < tiers_.home_tier(); ++t) {
    for (const BlockId block : tiers_.pool(t).blocks_sorted()) {
      const auto it = victim_touch_.find(block);
      const Duration idle =
          it == victim_touch_.end() ? now - SimTime() : now - it->second;
      if (!policy_->demote_when_idle(idle)) continue;
      if (demote_victim(block, t)) ++demoted;
    }
  }
  return demoted;
}

bool DataNode::purge_victim_copies(BlockId block) {
  bool dropped = false;
  for (std::size_t t = 1; t < tiers_.home_tier(); ++t) {
    BufferCache& pool = tiers_.pool(t);
    if (!pool.contains(block)) continue;
    const Bytes bytes = pool.block_bytes(block);
    pool.unlock(block);
    tiers_.note_demote(t, tiers_.home_tier(), block, bytes);
    dropped = true;
  }
  if (dropped) victim_touch_.erase(block);
  return dropped;
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
  alive_ = false;
  ++epoch_;  // in-flight write-buffer drains belong to the dead process
  tiers_.clear_pools();  // the OS reclaims the dead process's locked pages
  victim_touch_.clear();
  abort_pending_reads(nullptr);
}

void DataNode::restart() { alive_ = true; }

void DataNode::set_disk_failed(bool failed) {
  disk_failed_ = failed;
  if (failed) abort_pending_reads(&primary_device());
}

}  // namespace ignem
