#include "core/baselines.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.h"
#include "sim/simulator.h"
#include "storage/device.h"

namespace ignem {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  void build(std::size_t nodes, int replication, Bytes cache = 16 * kGiB) {
    namenode_ = std::make_unique<NameNode>(Rng(1), replication);
    for (std::size_t i = 0; i < nodes; ++i) {
      datanodes_.push_back(std::make_unique<DataNode>(
          sim_, NodeId(static_cast<std::int64_t>(i)),
          hdd_profile(), cache, Rng(50 + i)));
      namenode_->register_datanode(datanodes_.back().get());
    }
  }

  std::size_t cached_replicas(BlockId block) {
    std::size_t n = 0;
    for (const auto& dn : datanodes_) {
      if (dn->cache().contains(block)) ++n;
    }
    return n;
  }

  Simulator sim_;
  std::unique_ptr<NameNode> namenode_;
  std::vector<std::unique_ptr<DataNode>> datanodes_;
};

TEST_F(BaselinesTest, PreloadLocksEveryReplica) {
  build(4, 3);
  const FileId file = namenode_->create_file("/a", 256 * kMiB);
  preload_all_inputs(*namenode_, {file});
  for (const BlockId block : namenode_->file(file).blocks) {
    EXPECT_EQ(cached_replicas(block), 3u);  // vmtouch touches all copies
  }
}

TEST_F(BaselinesTest, PreloadMultipleFiles) {
  build(4, 2);
  const FileId a = namenode_->create_file("/a", 64 * kMiB);
  const FileId b = namenode_->create_file("/b", 64 * kMiB);
  preload_all_inputs(*namenode_, {a, b});
  EXPECT_EQ(cached_replicas(namenode_->file(a).blocks[0]), 2u);
  EXPECT_EQ(cached_replicas(namenode_->file(b).blocks[0]), 2u);
}

TEST_F(BaselinesTest, PreloadOverflowRejected) {
  build(2, 2, /*cache=*/32 * kMiB);
  const FileId file = namenode_->create_file("/a", 64 * kMiB);
  EXPECT_THROW(preload_all_inputs(*namenode_, {file}), CheckFailure);
}

TEST_F(BaselinesTest, InstantMigrationLocksOneReplicaImmediately) {
  build(4, 3);
  InstantMigrationService service(*namenode_, Rng(3));
  const FileId file = namenode_->create_file("/a", 192 * kMiB);
  MigrationRequest request;
  request.op = MigrationOp::kMigrate;
  request.job = JobId(1);
  request.files = {file};
  service.request(request);
  // No simulator time elapses: the hypothetical scheme is instantaneous.
  for (const BlockId block : namenode_->file(file).blocks) {
    EXPECT_EQ(cached_replicas(block), 1u);
  }
}

TEST_F(BaselinesTest, InstantMigrationEvictsImmediately) {
  build(4, 3);
  InstantMigrationService service(*namenode_, Rng(3));
  const FileId file = namenode_->create_file("/a", 64 * kMiB);
  MigrationRequest request;
  request.op = MigrationOp::kMigrate;
  request.job = JobId(1);
  request.files = {file};
  service.request(request);
  request.op = MigrationOp::kEvict;
  service.request(request);
  EXPECT_EQ(cached_replicas(namenode_->file(file).blocks[0]), 0u);
}

TEST_F(BaselinesTest, InstantMigrationSkipsWhenFull) {
  build(1, 1, /*cache=*/32 * kMiB);
  InstantMigrationService service(*namenode_, Rng(3));
  const FileId file = namenode_->create_file("/a", 64 * kMiB);
  MigrationRequest request;
  request.op = MigrationOp::kMigrate;
  request.job = JobId(1);
  request.files = {file};
  service.request(request);  // does not fit; silently skipped
  EXPECT_EQ(cached_replicas(namenode_->file(file).blocks[0]), 0u);
}

}  // namespace
}  // namespace ignem
