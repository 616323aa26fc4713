#include "integrity/scrubber.h"

#include "common/check.h"
#include "dfs/datanode.h"

namespace ignem {

Scrubber::Scrubber(Simulator& sim, NameNode& namenode, IntegrityConfig config)
    : namenode_(namenode) {
  IGNEM_CHECK(config.scrub_interval > Duration::zero());
  const std::size_t n = namenode_.node_count();
  cursors_.assign(n, BlockId::invalid());
  tasks_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Duration offset =
        config.scrub_interval * (static_cast<double>(i + 1) /
                                 static_cast<double>(n));
    tasks_.push_back(std::make_unique<PeriodicTask>(
        sim, offset, config.scrub_interval, [this, i] { tick(i); }));
  }
}

void Scrubber::stop() {
  for (auto& task : tasks_) task->stop();
}

void Scrubber::tick(std::size_t index) {
  DataNode* dn = namenode_.datanode(NodeId(static_cast<std::int64_t>(index)));
  if (!dn->alive() || !dn->disk_ok()) return;  // nothing to verify against
  BlockId next = dn->next_block_after(cursors_[index]);
  if (!next.valid()) {
    // Wrapped: restart from the smallest id (invalid() compares below all).
    next = dn->next_block_after(BlockId::invalid());
  }
  if (!next.valid()) return;  // node holds no blocks
  cursors_[index] = next;
  ++stats_.blocks_scanned;
  // Count before issuing our own read: anything in flight now (foreground
  // reads, re-replication, an earlier scan still draining) is IO this scan
  // will contend with.
  if (dn->primary_device().active_requests() > 0) ++stats_.scans_contended;
  // A promoted copy rots independently of the stored replica; checksum it
  // in the same pass. The check is free and emits only when the copy is
  // corrupt, so clean runs' traces and stats are untouched.
  dn->scrub_promoted_copy(next);
  dn->verify_block(next, [this](const BlockReadResult& result) {
    if (result.corrupt) ++stats_.corrupt_found;
  });
}

static_assert(sizeof(ScrubberStats) == 3 * sizeof(std::uint64_t),
              "name the new ScrubberStats field in Scrubber::add_counters");

void Scrubber::add_counters(std::map<std::string, std::uint64_t>& counters,
                            std::map<std::string, double>& gauges) const {
  counters["scrub.blocks_scanned"] += stats_.blocks_scanned;
  counters["scrub.corrupt_found"] += stats_.corrupt_found;
  counters["scrub.scans_contended"] += stats_.scans_contended;
  const auto per = [](std::uint64_t n, std::uint64_t d) {
    return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
  };
  std::uint64_t replicas = 0;
  for (std::size_t i = 0; i < namenode_.node_count(); ++i) {
    replicas +=
        namenode_.datanode(NodeId(static_cast<std::int64_t>(i)))->block_count();
  }
  gauges["scrub.contention_ratio"] =
      per(stats_.scans_contended, stats_.blocks_scanned);
  gauges["scrub.coverage"] = per(stats_.blocks_scanned, replicas);
}

}  // namespace ignem
