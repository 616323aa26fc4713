#include "core/baselines.h"

namespace ignem {

void preload_all_inputs(NameNode& namenode,
                        const std::vector<FileId>& files) {
  for (const FileId file : files) {
    for (const BlockId block : namenode.file(file).blocks) {
      const BlockInfo& info = namenode.block(block);
      for (const NodeId node : info.replicas) {
        IGNEM_CHECK_MSG(
            namenode.datanode(node)->cache().lock(block, info.size),
            "preload overflowed node " << node.value()
                                       << "'s cache capacity");
      }
    }
  }
}

InstantMigrationService::InstantMigrationService(NameNode& namenode, Rng rng)
    : namenode_(namenode), rng_(rng) {}

void InstantMigrationService::request(const MigrationRequest& request) {
  for (const FileId file : request.files) {
    for (const BlockId block : namenode_.file(file).blocks) {
      if (request.op == MigrationOp::kMigrate) {
        const std::vector<NodeId> locations = namenode_.live_locations(block);
        if (locations.empty()) continue;
        const NodeId target =
            locations[static_cast<std::size_t>(rng_.uniform_int(
                0, static_cast<std::int64_t>(locations.size()) - 1))];
        const BlockInfo& info = namenode_.block(block);
        if (namenode_.datanode(target)->cache().lock(block, info.size)) {
          placed_[{request.job, block}] = target;
        }
      } else {
        const auto it = placed_.find({request.job, block});
        if (it == placed_.end()) continue;
        namenode_.datanode(it->second)->cache().unlock(block);
        placed_.erase(it);
      }
    }
  }
}

}  // namespace ignem
