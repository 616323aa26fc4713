// DataNode: per-node block storage and the read path.
//
// Owns the node's two storage tiers, the paper's layout: the RAM
// locked-page pool (tier 0, a BufferCache over the node's RAM device) and
// the primary device (tier 1, the home tier that holds every durable
// replica). A promoted copy in the pool serves a block at RAM speed,
// otherwise the primary device does. The Ignem slave (core module) plugs
// into the DataNode via the pool/device accessors and the BlockReadListener
// hook (used for implicit eviction, §III-B2). The plug-in lives in the
// DataNode process: the process's crash resets it, and an integrity purge
// of a pool copy goes through it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "storage/buffer_cache.h"
#include "storage/device.h"

namespace ignem {

/// The DataNode's plug-in (the Ignem slave or the hot-data promoter): it
/// observes completed block reads (the slave's implicit-eviction hook) and
/// owns the pool copies it put there. Reads carry the job ID, as in the
/// paper's modified HDFS read calls.
class BlockReadListener {
 public:
  virtual ~BlockReadListener() = default;
  virtual void on_block_read(NodeId node, BlockId block, JobId job) = 0;
  /// Drops the plug-in's pool copy of `block` and its state about the
  /// block; true when a locked copy was unlocked.
  virtual bool purge_block(BlockId block) = 0;
  /// The DataNode process failed: forget every copy and abort every
  /// page-in. The DataNode reclaims the pool itself right after.
  virtual void reset() = 0;
};

/// Block reads per serving tier (hit rate = pool_reads / all reads).
struct DataNodeStats {
  std::uint64_t pool_reads = 0;  ///< Served by a promoted copy (tier 0).
  std::uint64_t home_reads = 0;  ///< Served by the primary device (tier 1).
};

struct BlockReadResult {
  Duration duration;
  bool from_memory = false;
  bool failed = false;  ///< The node (or its disk) died before the read ended.
  bool corrupt = false;  ///< The read finished but the checksum pass failed.
};

/// Which verification pass noticed a corrupt copy (kCorruptionDetected
/// detail values).
enum class CorruptionSource : std::int64_t {
  kRead = 0,       ///< a foreground block read's checksum pass
  kScrub = 1,      ///< the background scrubber
  kMigration = 2,  ///< the Ignem slave verifying a paged-in migration source
};

class DataNode {
 public:
  using ReadCallback = std::function<void(const BlockReadResult&)>;
  /// (node, block, cached copy?, which pass found it).
  using CorruptionReporter =
      std::function<void(NodeId, BlockId, bool, CorruptionSource)>;

  /// A locked pool of `pool_capacity` bytes (positive) in RAM over a
  /// `primary` home device. Devices are named "dnN/primary" and "dnN/ram";
  /// their RNG streams fork 1 (home) and 2 (pool) off `rng`.
  DataNode(Simulator& sim, NodeId id, const DeviceProfile& primary,
           Bytes pool_capacity, Rng rng);

  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  NodeId id() const { return id_; }
  bool alive() const { return alive_; }

  /// Registers a block as stored on this node (metadata only: experiment
  /// inputs are generated before the measured run, as in the paper).
  void add_block(BlockId block, Bytes size);
  bool has_block(BlockId block) const { return find(block) != nullptr; }

  /// Stored replicas on this node (the scrubber's per-node universe).
  std::size_t block_count() const { return replicas_.size(); }
  Bytes block_size(BlockId block) const;

  /// Drops an invalidated replica from the node (NameNode decided the copy
  /// is garbage). In-flight disk reads of the block are aborted with
  /// `failed = true`; a pool copy, if any, is untouched (the Ignem slave
  /// owns it).
  void remove_block(BlockId block);

  /// Silent bit-rot: marks the stored replica rotten so the next
  /// verification pass (read, scrub, migration verify) mismatches. The
  /// damage survives process restarts — rot lives on the platter — and a
  /// re-write (add_block) or removal clears it.
  void corrupt_block(BlockId block);
  /// Whether a verification pass over the stored replica would fail: a probe
  /// of the rot marks, which are almost always empty, not of the table.
  bool is_corrupt(BlockId block) const {
    return !rotten_.empty() && rotten_.contains(block);
  }
  /// Corrupts the promoted in-memory copy instead (the home replica stays
  /// good). Delegates to the pool, so eviction discards the mark.
  void corrupt_cached_copy(BlockId block) { pool_.mark_corrupt(block); }
  /// Integrity purge of the pool's copy of `block`: through the plug-in,
  /// which owns its copies, or straight out of the pool when there is none.
  /// True when a locked copy was unlocked.
  bool purge_cached_copy(BlockId block) {
    return listener_ != nullptr ? listener_->purge_block(block)
                                : pool_.unlock(block);
  }

  /// Stored block ids in ascending order, and the smallest id strictly
  /// greater than `cursor` (invalid when none) — the scrubber's scan
  /// order. Both read the sorted replica table directly.
  std::vector<BlockId> blocks_sorted() const;
  BlockId next_block_after(BlockId cursor) const;

  /// Reads `size` bytes of a block for `job`; a pool copy serves it at RAM
  /// speed, otherwise the primary device does. The caller supplies the size
  /// it resolved (the client's BlockInfo, the repair order's bytes); it must
  /// match the copy served — the pool entry, or for a disk read the replica
  /// table. Fires the listener after the read completes, then the callback.
  /// On a dead node or fail-stopped disk the callback fires asynchronously
  /// with `failed = true` (no kBlockReadStart is emitted) so the client can
  /// retry another replica.
  void read_block(BlockId block, Bytes size, JobId job,
                  ReadCallback on_complete);

  /// Scrubber entry point: pays a full checksum read of the stored replica
  /// through the home device, emits kScrub, and reports corruption like
  /// the read path does. The callback's `corrupt` flag carries the verdict.
  void verify_block(BlockId block, ReadCallback on_complete);

  /// Scrub extension: checksums the pool's copy of `block`, if any, and
  /// reports cached-copy corruption. Free and silent unless the copy is
  /// corrupt.
  void scrub_promoted_copy(BlockId block);

  /// Writes `bytes` of job output through the primary device. On a dead
  /// node or failed disk the write is lost but completes immediately, so
  /// callers' completion barriers never hang.
  void write(Bytes bytes, std::function<void()> on_complete);

  /// Process failure: the plug-in is reset, then all locked memory in the
  /// pool is reclaimed by the OS; stored blocks persist on disk. In-flight
  /// reads are aborted and their callbacks fired with `failed = true`.
  /// `restart()` brings the process back.
  void fail();
  void restart();

  /// Disk fail-stop: the process stays up but the home device refuses
  /// service (in-flight home-tier reads fail). Promoted copies still serve.
  void set_disk_failed(bool failed);
  bool disk_ok() const { return alive_ && !disk_failed_; }

  /// The home device and the pool (the paper's locked-page cache). Copies
  /// enter and leave through the pool: lock()/reserve()+commit_reservation()
  /// and unlock().
  StorageDevice& primary_device() { return primary_; }
  const StorageDevice& primary_device() const { return primary_; }
  BufferCache& cache() { return pool_; }
  const BufferCache& cache() const { return pool_; }
  /// True when the pool holds a copy of `block` (reads skip the home
  /// device).
  bool has_promoted_copy(BlockId block) const { return pool_.contains(block); }

  const DataNodeStats& stats() const { return stats_; }
  /// Adds the pool's move counts (tier.promotes, tier.demotes) and the
  /// reads per tier (tier.reads.t0, tier.reads.t1) to `counters`. Every
  /// node adds into the same names.
  void add_counters(std::map<std::string, std::uint64_t>& counters) const;

  void set_read_listener(BlockReadListener* listener) { listener_ = listener; }

  /// Wires the node into the integrity plane; called whenever a checksum
  /// pass trips over a corrupt copy.
  void set_corruption_reporter(CorruptionReporter reporter) {
    reporter_ = std::move(reporter);
  }
  void report_corruption(BlockId block, bool cached, CorruptionSource source);

  /// Emits kReplicaAdd and kBlockReadStart/End; also wires both devices'
  /// bandwidth channels (silent at wiring) and the pool (emits kCacheInit
  /// now) into the same recorder.
  void set_trace(TraceRecorder* trace);

 private:
  /// Aborts in-flight reads (all of them, or only those on `device`, or
  /// only those of `block` when it is valid) and fires their callbacks with
  /// `failed = true` on the next sim step.
  void abort_pending_reads(const StorageDevice* device,
                           BlockId block = BlockId::invalid());

  Simulator& sim_;
  TraceRecorder* trace_ = nullptr;
  NodeId id_;
  StorageDevice ram_;      // behind the pool (tier 0)
  StorageDevice primary_;  // the home tier (tier 1)
  BufferCache pool_;
  DataNodeStats stats_;
  // The replica table, sorted by block id: lookups and the scrub cursor are
  // binary searches. Set-up appends (block ids are handed out in increasing
  // order); repair inserts in place, so never keep a pointer across
  // add_block()/remove_block(). The read and page-in paths never search it
  // but for a disk read's size check.
  struct Replica {
    BlockId block;
    Bytes size;
  };
  std::vector<Replica> replicas_;
  const Replica* find(BlockId block) const;  // null when not stored
  // Stored replicas that rotted, each one in replicas_ too: add_block (a
  // re-write) and remove_block clear a mark, as the pool's marks go with
  // its copies.
  std::unordered_set<BlockId> rotten_;
  bool alive_ = true;
  bool disk_failed_ = false;
  BlockReadListener* listener_ = nullptr;
  CorruptionReporter reporter_;

  struct PendingRead {
    StorageDevice* device;
    TransferHandle handle;
    BlockId block;
    ReadCallback callback;
  };
  std::map<std::uint64_t, PendingRead> pending_reads_;  // ordered: determinism
  std::uint64_t next_read_ = 1;
};

}  // namespace ignem
