#include "dfs/dfs_client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace ignem {
namespace {

class DfsClientTest : public ::testing::Test {
 protected:
  void build(std::size_t nodes, int replication) {
    namenode_ = std::make_unique<NameNode>(Rng(1), replication);
    DeviceProfile profile = hdd_profile();
    profile.access_jitter = 0.0;
    for (std::size_t i = 0; i < nodes; ++i) {
      datanodes_.push_back(std::make_unique<DataNode>(
          sim_, NodeId(static_cast<std::int64_t>(i)),
          profile, 16 * kGiB, Rng(50 + i)));
      namenode_->register_datanode(datanodes_.back().get());
    }
    network_ = std::make_unique<Network>(sim_, nodes, NetworkProfile{});
    client_ = std::make_unique<DfsClient>(sim_, *namenode_, *network_,
                                          &metrics_);
  }

  BlockId one_block_file(const std::string& path) {
    const FileId id = namenode_->create_file(path, 64 * kMiB);
    return namenode_->file(id).blocks[0];
  }

  BlockReadRecord read(NodeId reader, BlockId block, JobId job = JobId(1)) {
    BlockReadRecord out;
    client_->read_block(reader, block, job,
                        [&](const BlockReadRecord& r) { out = r; });
    sim_.run();
    return out;
  }

  Simulator sim_;
  RunMetrics metrics_;
  std::vector<std::unique_ptr<DataNode>> datanodes_;
  std::unique_ptr<NameNode> namenode_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<DfsClient> client_;
};

TEST_F(DfsClientTest, LocalReplicaPreferredOverRemote) {
  build(4, 4);  // replica everywhere -> reader always has one
  const BlockId block = one_block_file("/a");
  const auto record = read(NodeId(2), block);
  EXPECT_FALSE(record.remote);
  EXPECT_FALSE(record.from_memory);
  EXPECT_EQ(record.bytes, 64 * kMiB);
}

TEST_F(DfsClientTest, RemoteReadWhenNoLocalReplica) {
  build(4, 1);
  const BlockId block = one_block_file("/a");
  const NodeId holder = namenode_->block(block).replicas[0];
  NodeId reader = NodeId((holder.value() + 1) % 4);
  const auto record = read(reader, block);
  EXPECT_TRUE(record.remote);
  EXPECT_GT(record.duration.to_seconds(), 0.0);
}

TEST_F(DfsClientTest, RemoteCachedBeatsLocalDisk) {
  build(4, 4);
  const BlockId block = one_block_file("/a");
  // Another node has it in memory; reader has it on disk.
  datanodes_[3]->cache().lock(block, 64 * kMiB);
  const auto record = read(NodeId(0), block);
  EXPECT_TRUE(record.remote);
  EXPECT_TRUE(record.from_memory);
  EXPECT_EQ(record.source, NodeId(3));
  // RAM + network is far faster than the contention-free local HDD read.
  const auto local = read(NodeId(1), BlockId(one_block_file("/b")));
  EXPECT_LT(record.duration.to_seconds(), local.duration.to_seconds());
}

TEST_F(DfsClientTest, LocalCachedIsFastest) {
  build(4, 4);
  const BlockId block = one_block_file("/a");
  datanodes_[1]->cache().lock(block, 64 * kMiB);
  const auto record = read(NodeId(1), block);
  EXPECT_FALSE(record.remote);
  EXPECT_TRUE(record.from_memory);
  EXPECT_LT(record.duration.to_seconds(), 0.1);
}

TEST_F(DfsClientTest, DeadReplicaAvoided) {
  build(4, 2);
  const BlockId block = one_block_file("/a");
  const auto replicas = namenode_->block(block).replicas;
  namenode_->set_node_alive(replicas[0], false);
  const auto record = read(replicas[0], block);  // reader node itself is dead as a DN
  // Must have read from the surviving replica over the network.
  EXPECT_TRUE(record.remote);
}

TEST_F(DfsClientTest, PreferredLocationsPutCachedFirst) {
  build(4, 3);
  const BlockId block = one_block_file("/a");
  const auto replicas = namenode_->block(block).replicas;
  datanodes_[static_cast<std::size_t>(replicas[2].value())]->cache().lock(
      block, 64 * kMiB);
  const auto preferred = client_->preferred_locations(block);
  ASSERT_EQ(preferred.size(), 3u);
  EXPECT_EQ(preferred[0], replicas[2]);
}

TEST_F(DfsClientTest, CachedCopyOnFailedDiskStillEligible) {
  // The block sits in the sole holder's locked memory while its disk is
  // fail-stopped: the cached copy must still serve the read.
  build(4, 1);
  const BlockId block = one_block_file("/a");
  const NodeId holder = namenode_->block(block).replicas[0];
  DataNode& dn = *datanodes_[static_cast<std::size_t>(holder.value())];
  dn.cache().lock(block, 64 * kMiB);
  dn.set_disk_failed(true);
  const auto record = read(NodeId((holder.value() + 1) % 4), block);
  EXPECT_FALSE(record.failed);
  EXPECT_TRUE(record.from_memory);
  EXPECT_EQ(record.source, holder);
}

TEST_F(DfsClientTest, RemoteDiskTieBreaksByNodeId) {
  build(4, 2);
  const BlockId block = one_block_file("/a");
  std::vector<NodeId> replicas = namenode_->block(block).replicas;
  std::sort(replicas.begin(), replicas.end());
  NodeId reader;
  for (std::int64_t i = 0; i < 4; ++i) {
    if (std::find(replicas.begin(), replicas.end(), NodeId(i)) ==
        replicas.end()) {
      reader = NodeId(i);
      break;
    }
  }
  ASSERT_TRUE(reader.valid());
  // Both holders idle: equal load, so the smallest node id must win.
  const auto record = read(reader, block);
  EXPECT_TRUE(record.remote);
  EXPECT_EQ(record.source, replicas.front());
}

TEST_F(DfsClientTest, RemoteDiskPrefersLeastLoadedReplica) {
  build(4, 2);
  const BlockId block = one_block_file("/a");
  std::vector<NodeId> replicas = namenode_->block(block).replicas;
  std::sort(replicas.begin(), replicas.end());
  NodeId reader;
  for (std::int64_t i = 0; i < 4; ++i) {
    if (std::find(replicas.begin(), replicas.end(), NodeId(i)) ==
        replicas.end()) {
      reader = NodeId(i);
      break;
    }
  }
  ASSERT_TRUE(reader.valid());
  // Busy the tie-break winner's device; load must steer to the other holder.
  datanodes_[static_cast<std::size_t>(replicas[0].value())]
      ->primary_device()
      .read(1 * kGiB, [] {});
  const auto record = read(reader, block);
  EXPECT_TRUE(record.remote);
  EXPECT_EQ(record.source, replicas[1]);
}

TEST_F(DfsClientTest, ReadFailsTerminallyAtDeadline) {
  // Sole replica behind a fail-stopped disk: the retry loop must give up at
  // the deadline with failed=true instead of retrying forever (sim_.run()
  // returning at all proves the loop terminated).
  build(2, 1);
  const BlockId block = one_block_file("/a");
  const NodeId holder = namenode_->block(block).replicas[0];
  datanodes_[static_cast<std::size_t>(holder.value())]->set_disk_failed(true);
  const double deadline = DfsClient::kReadDeadline.to_seconds();
  const auto record = read(NodeId((holder.value() + 1) % 2), block);
  EXPECT_TRUE(record.failed);
  EXPECT_GE(record.duration.to_seconds(), deadline);
  EXPECT_LT(record.duration.to_seconds(), deadline + 0.6);
  ASSERT_EQ(metrics_.block_reads().size(), 1u);
  EXPECT_TRUE(metrics_.block_reads()[0].failed);
}

TEST_F(DfsClientTest, ReadRecoversWhenDiskReturnsBeforeDeadline) {
  build(2, 1);
  const BlockId block = one_block_file("/a");
  const NodeId holder = namenode_->block(block).replicas[0];
  DataNode& dn = *datanodes_[static_cast<std::size_t>(holder.value())];
  dn.set_disk_failed(true);
  sim_.schedule(Duration::seconds(5), [&dn] { dn.set_disk_failed(false); });
  const auto record = read(NodeId((holder.value() + 1) % 2), block);
  EXPECT_FALSE(record.failed);
  EXPECT_GE(record.duration.to_seconds(), 5.0);
}

TEST_F(DfsClientTest, MetricsRecorded) {
  build(2, 2);
  const BlockId block = one_block_file("/a");
  const auto record = read(NodeId(0), block, JobId(42));
  EXPECT_EQ(record.job, JobId(42));
  EXPECT_EQ(record.reader, NodeId(0));
  ASSERT_EQ(metrics_.block_reads().size(), 1u);
  const auto& sample = metrics_.block_reads()[0];
  EXPECT_EQ(sample.bytes, 64 * kMiB);
  EXPECT_EQ(sample.start, record.start);
  EXPECT_EQ(sample.duration, record.duration);
}

TEST_F(DfsClientTest, MigrateWithoutServiceIsNoOp) {
  build(2, 2);
  MigrationRequest request;
  request.job = JobId(1);
  request.files = {namenode_->lookup("/nope")};
  EXPECT_FALSE(client_->has_migration_service());
  client_->migrate(request);  // must not crash
}

class CountingService : public MigrationService {
 public:
  void request(const MigrationRequest& r) override {
    ++calls;
    last = r;
  }
  int calls = 0;
  MigrationRequest last;
};

TEST_F(DfsClientTest, MigrateForwardsToService) {
  build(2, 2);
  CountingService service;
  client_->set_migration_service(&service);
  MigrationRequest request;
  request.op = MigrationOp::kEvict;
  request.job = JobId(9);
  client_->migrate(request);
  EXPECT_EQ(service.calls, 1);
  EXPECT_EQ(service.last.op, MigrationOp::kEvict);
  EXPECT_EQ(service.last.job, JobId(9));
}

}  // namespace
}  // namespace ignem
