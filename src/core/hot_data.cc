#include "core/hot_data.h"

#include "common/check.h"

namespace ignem {

HotDataPromoter::HotDataPromoter(Simulator& sim, DataNode& datanode,
                                 int promote_threshold)
    : sim_(sim), datanode_(datanode), promote_threshold_(promote_threshold) {
  IGNEM_CHECK(promote_threshold_ >= 1);
  datanode_.set_read_listener(this);
}

void HotDataPromoter::on_block_read(NodeId node, BlockId block, JobId) {
  IGNEM_CHECK(node == datanode_.id());
  if (lru_index_.contains(block)) {
    touch(block);  // recency update
    return;
  }
  const int count = ++access_counts_[block];
  if (count < promote_threshold_) return;
  if (page_ins_.contains(block)) return;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kHotPromote, datanode_.id(), block,
                 JobId::invalid(), datanode_.block_size(block), count,
                 static_cast<double>(promote_threshold_));
  }
  promote(block, datanode_.block_size(block));
}

void HotDataPromoter::promote(BlockId block, Bytes bytes) {
  // Cannot fit even after evicting everything colder.
  if (!make_room(bytes)) return;
  // Reserve, then page the block in from disk (this is extra IO the
  // promotion scheme spends *after* the hot reads already paid for disk).
  if (!datanode_.cache().reserve(bytes)) return;
  page_ins_[block] =
      datanode_.primary_device().read(bytes, [this, block, bytes] {
        page_ins_.erase(block);
        datanode_.cache().commit_reservation(block, bytes);
        lru_.push_front(block);
        lru_index_[block] = lru_.begin();
        ++stats_.promotions;
        stats_.bytes_promoted += bytes;
      });
}

bool HotDataPromoter::make_room(Bytes bytes) {
  while (datanode_.cache().available() < bytes) {
    if (lru_.empty()) return false;
    const BlockId victim = lru_.back();
    lru_.pop_back();
    lru_index_.erase(victim);
    datanode_.cache().unlock(victim);
    ++stats_.evictions;
  }
  return true;
}

bool HotDataPromoter::purge_block(BlockId block) {
  if (const auto it = lru_index_.find(block); it != lru_index_.end()) {
    lru_.erase(it->second);
    lru_index_.erase(it);
  }
  return datanode_.cache().unlock(block);
}

void HotDataPromoter::reset() {
  for (const auto& [block, page_in] : page_ins_) {
    datanode_.primary_device().abort(page_in);
  }
  page_ins_.clear();
  access_counts_.clear();
  lru_.clear();
  lru_index_.clear();
}

void HotDataPromoter::touch(BlockId block) {
  const auto it = lru_index_.find(block);
  IGNEM_CHECK(it != lru_index_.end());
  lru_.erase(it->second);
  lru_.push_front(block);
  it->second = lru_.begin();
}

static_assert(sizeof(HotDataStats) == 3 * sizeof(std::uint64_t),
              "name the new HotDataStats field in "
              "HotDataPromoter::add_counters");

void HotDataPromoter::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["hotdata.promotions"] += stats_.promotions;
  counters["hotdata.evictions"] += stats_.evictions;
  counters["hotdata.bytes_promoted"] +=
      static_cast<std::uint64_t>(stats_.bytes_promoted);
}

}  // namespace ignem
